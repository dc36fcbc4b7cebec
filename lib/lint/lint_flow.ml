(* R7/R8/R9: the interprocedural rules built on {!Lint_interproc}.

   R7 — cross-domain races: a top-level mutable value reachable,
   directly or through any call chain, from a worker closure passed to
   Sweep.map / Sweep.open_loop / Domain.spawn.

   R8 — event-loop hygiene: transitively-blocking calls, and unbounded
   List/Seq traversals in the loop layer itself, reachable from the
   serving plane's per-connection dispatch roots.

   R9 — wall-clock taint: Unix.gettimeofday / Unix.time / Sys.time and
   anything transitively built on them, outside lib/obs/clock.ml. *)

module SS = Lint_interproc.SS
open Lint_interproc

(* The per-connection dispatch path of the serving plane.  The fixture
   loop rides along so the verify.sh negative control (and the
   acceptance run over test/lintfix) exercises R8 through the default
   CLI configuration; a root that resolves to no definition contributes
   nothing. *)
let default_r8_roots = [ "Serve_server.handle_line"; "Lintfix_evloop.dispatch" ]

(* The one source file allowed to read the wall clock. *)
let clock_source = "lib/obs/clock.ml"

let finding rule (u : summary) (pos : pos) message =
  {
    Lint.rule;
    file = u.s_source;
    line = pos.line;
    col = pos.col;
    message;
  }

let chain names = String.concat " -> " names

(* ------------------------------------------------------------------ *)
(* R7: worker closures at spawn sites.                                 *)

(* The Obs layer implements the documented fork/absorb merge
   protocol (DESIGN §8): its internal mutable state is per-domain by
   construction and merged explicitly, so worker code reaching it is the
   sanctioned path, not a race.  Sweep owns the domain pool itself. *)
let r7_exempt =
  [
    "Obs";
    "Metrics";
    "Trace";
    "Span";
    "Stats";
    "Flight";
    "Snapshot";
    "Reqtrace";
    "Clock";
    "Jsonx";
    "Sweep";
  ]

let check_r7 ~emit db =
  let muts =
    List.fold_left
      (fun acc u ->
        if List.mem u.s_modname r7_exempt then acc
        else
          List.fold_left
            (fun acc d ->
              if Option.is_some d.d_mutable then SS.add d.d_name acc else acc)
            acc u.s_defs)
      SS.empty (units db)
  in
  let tainted =
    transitive db ~seeds:muts
      ~stop:(fun u _ -> List.mem u.s_modname r7_exempt)
      ()
  in
  let kind_of name =
    match find_def db name with
    | Some ({ d_mutable = Some k; _ }, _) -> k
    | _ -> "mutable"
  in
  (* Every worker reference at a spawn site in a non-exempt unit: a
     mutable global named directly, else one reached through calls. *)
  let check u sp (w : use) =
    if SS.mem w.u_name muts then
      emit
        (finding Lint.R7 u w.u_pos
           (Printf.sprintf
              "%s worker shares top-level mutable %s %s across domains; route \
               per-domain state through the Obs fork/absorb protocol or an \
               Atomic"
              sp.sp_kind (kind_of w.u_name) w.u_name))
    else if SS.mem w.u_name tainted then
      let via =
        match witness db ~seeds:muts ~tainted w.u_name with
        | Some c -> chain c
        | None -> w.u_name
      in
      emit
        (finding Lint.R7 u w.u_pos
           (Printf.sprintf
              "%s worker calls %s, which reaches top-level mutable state \
               without the fork/absorb merge protocol (%s); pass the state \
               in, or merge per-domain copies explicitly"
              sp.sp_kind w.u_name via))
  in
  List.iter
    (fun u ->
      if not (List.mem u.s_modname r7_exempt) then
        List.iter (fun sp -> List.iter (check u sp) sp.sp_worker) u.s_spawns)
    (units db)

(* ------------------------------------------------------------------ *)
(* R8: event-loop hygiene.                                             *)

let check_r8 ~emit ~r8_roots db =
  let roots = SS.of_list r8_roots in
  let reach = reachable db ~roots in
  if not (SS.is_empty reach) then begin
    (* The loop layer: the units that own a root.  Unbounded traversals
       are flagged there only — beneath the loop, traversals are the
       request's measured service work, not loop overhead. *)
    let root_units =
      SS.fold
        (fun r acc ->
          match find_def db r with
          | Some (_, u) when SS.mem r roots -> SS.add u.s_source acc
          | _ -> acc)
        reach SS.empty
    in
    List.iter
      (fun u ->
        List.iter
          (fun d ->
            if SS.mem d.d_name reach then begin
              let via =
                match path_from db ~roots d.d_name with
                | Some c -> chain c
                | None -> d.d_name
              in
              List.iter
                (fun (b : use) ->
                  emit
                    (finding Lint.R8 u b.u_pos
                       (Printf.sprintf
                          "blocking %s on the event-loop dispatch path (%s); \
                           the select loop must never block outside the \
                           select itself — buffer the I/O and wait for \
                           readiness"
                          b.u_name via)))
                d.d_blocking;
              if SS.mem u.s_source root_units then
                List.iter
                  (fun (tr : use) ->
                    emit
                      (finding Lint.R8 u tr.u_pos
                         (Printf.sprintf
                            "unbounded %s on the event-loop dispatch path \
                             (%s); per-request work in the loop layer must \
                             not scale with connection count — index it or \
                             move it behind the broker"
                            tr.u_name via)))
                  d.d_traversals
            end)
          u.s_defs)
      (units db)
  end

(* ------------------------------------------------------------------ *)
(* R9: wall-clock taint.                                               *)

let check_r9 ~emit db =
  let sanctioned u = u.s_source = clock_source in
  let tainted =
    transitive db ~seeds:wall_prims ~stop:(fun u _ -> sanctioned u) ()
  in
  List.iter
    (fun u ->
      if not (sanctioned u) then
        List.iter
          (fun d ->
            List.iter
              (fun (w : use) ->
                emit
                  (finding Lint.R9 u w.u_pos
                     (Printf.sprintf
                        "%s reads the wall clock outside %s; durations come \
                         off the monotonic Clock.now, calendar labels off \
                         Clock.wall_s"
                        w.u_name clock_source)))
              d.d_wall;
            List.iter
              (fun (r : use) ->
                if SS.mem r.u_name tainted then
                  let via =
                    match
                      witness db ~seeds:wall_prims ~tainted r.u_name
                    with
                    | Some c -> chain c
                    | None -> r.u_name
                  in
                  emit
                    (finding Lint.R9 u r.u_pos
                       (Printf.sprintf
                          "%s transitively reads the wall clock (%s); alias \
                           and re-export chains are banned outside %s — use \
                           the monotonic Clock"
                          r.u_name via clock_source)))
              d.d_refs)
          u.s_defs)
    (units db)

let check ~emit ~enabled ~r8_roots db =
  if enabled Lint.R7 then check_r7 ~emit db;
  if enabled Lint.R8 then check_r8 ~emit ~r8_roots db;
  if enabled Lint.R9 then check_r9 ~emit db
