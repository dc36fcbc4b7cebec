(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)

type family = Waxman | Torus | Transit_stub

let family_name = function
  | Waxman -> "waxman"
  | Torus -> "torus"
  | Transit_stub -> "transit-stub"

let family_of_string = function
  | "waxman" | "random" -> Some Waxman
  | "torus" -> Some Torus
  | "transit-stub" | "tier" -> Some Transit_stub
  | _ -> None

let all_families = [ Waxman; Torus; Transit_stub ]

type config = {
  family : family;
  seed : int;
  ops : int;
  nodes : int;
  capacity : int;
  backups_per_connection : int;
  restore_on_failure : bool;
  multiplexing : bool;
  policy : Policy.t;
  deep_every : int;
}

let config ?(nodes = 20) ?(capacity = 1200) ?(backups = 2) ?(restore = false)
    ?(multiplexing = true) ?(policy = Policy.equal_share) ?(deep_every = 20)
    ~family ~seed ~ops () =
  {
    family;
    seed;
    ops;
    nodes;
    capacity;
    backups_per_connection = backups;
    restore_on_failure = restore;
    multiplexing;
    policy;
    deep_every;
  }

(* The topology is part of the reproducer: derived from the seed alone
   (via an independent split of the stream) so a printed script plus its
   config line rebuilds the exact same network. *)
let topology cfg =
  let rng = Prng.create (cfg.seed lxor 0x2545f4914f6cdd1d) in
  match cfg.family with
  | Waxman ->
    Waxman.generate rng (Waxman.spec ~nodes:(max 4 cfg.nodes) ~alpha:0.6 ~beta:0.5 ())
  | Torus ->
    let n = max 9 cfg.nodes in
    let rows = max 3 (int_of_float (sqrt (float_of_int n))) in
    Torus.generate ~rows ~cols:(max 3 (n / rows))
  | Transit_stub ->
    let stub_size = max 2 ((max 12 cfg.nodes - 4) / 8) in
    (Transit_stub.generate rng
       (Transit_stub.spec ~transit_domains:1 ~transit_size:4
          ~stubs_per_transit_node:2 ~stub_size ()))
      .Transit_stub.graph

(* Mix of elastic ranges (incl. the paper's 100–500 spec at two
   increments), utility outliers for the utility-aware policies, and an
   inelastic single-value spec. *)
let qos_palette =
  [|
    Qos.paper_spec ~increment:100;
    Qos.paper_spec ~increment:50;
    Qos.make ~utility:2.0 ~b_min:100 ~b_max:300 ~increment:100 ();
    Qos.make ~utility:0.7 ~b_min:200 ~b_max:400 ~increment:50 ();
    Qos.make ~b_min:50 ~b_max:250 ~increment:50 ();
    Qos.single_value 150;
  |]

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)

let gen_op rng =
  let raw () = Prng.int rng 100_000 in
  let dice = Prng.int rng 100 in
  if dice < 34 then
    let src = raw () in
    let dst = raw () in
    let qos = raw () in
    Op.Admit { src; dst; qos }
  else if dice < 59 then Op.Terminate (raw ())
  else if dice < 69 then Op.Fail (raw ())
  else if dice < 79 then Op.Repair (raw ())
  else if dice < 87 then
    let k = raw () in
    let q = raw () in
    Op.Change_qos (k, q)
  else if dice < 90 then Op.Set_auto false
  else if dice < 94 then Op.Set_auto true
  else Op.Redistribute_all

let gen_ops cfg =
  let rng = Prng.create cfg.seed in
  Array.init cfg.ops (fun _ -> gen_op rng)

let reduce ~nodes ~edges ~live ~failed op =
  let nth l k = List.nth_opt l (k mod max 1 (List.length l)) in
  let palette q = q mod Array.length qos_palette in
  match op with
  | Op.Admit { src; dst; qos } ->
    if nodes <= 1 then None
    else
      let src = src mod nodes in
      let dst = (src + 1 + (dst mod (nodes - 1))) mod nodes in
      Some (Op.Admit { src; dst; qos = palette qos })
  | Op.Terminate k -> Option.map (fun c -> Op.Terminate c) (nth live k)
  | Op.Change_qos (k, q) ->
    Option.map (fun c -> Op.Change_qos (c, palette q)) (nth live k)
  | Op.Fail k -> if edges <= 0 then None else Some (Op.Fail (k mod edges))
  | Op.Repair k ->
    if edges <= 0 then None
    else Some (Op.Repair (Option.value ~default:(k mod edges) (nth failed k)))
  | Op.Set_auto _ | Op.Redistribute_all -> Some op

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

type stats = {
  ops_run : int;
  admitted : int;
  rejected : int;
  terminated : int;
  qos_changed : int;
  qos_refused : int;
  edge_failures : int;
  edge_repairs : int;
  activations : int;
  drops : int;
  restores : int;
  backup_losses : int;
  live : int;
}

type violation = { index : int; op : Op.t; message : string }

type run = {
  stats : stats;
  violation : violation option;
  flight : (float * Trace.event) list;
}

let replay ?(extra_invariant = fun (_ : Drcomm.t) -> ()) cfg (ops : Op.t array) =
  let g = topology cfg in
  let n = Graph.node_count g in
  let ec = Graph.edge_count g in
  let metrics = Metrics.create () in
  (* Always-on flight recorder: replays are deterministic, so the ring's
     tail is the events leading into a violation, op index as time axis. *)
  let flight = Flight.create ~capacity:256 () in
  let trace = Trace.create (Flight.sink flight Trace.null_sink) in
  let obs = Obs.create ~metrics ~trace () in
  let net =
    Net_state.create ~multiplexing:cfg.multiplexing ~capacity:cfg.capacity g
  in
  let dconfig =
    Drcomm.Config.make ~policy:cfg.policy ~require_backup:false
      ~backups_per_connection:cfg.backups_per_connection
      ~restore_on_failure:cfg.restore_on_failure ()
  in
  let t = Drcomm.create ~config:dconfig ~obs net in
  let admitted = ref 0
  and rejected = ref 0
  and terminated = ref 0
  and qos_changed = ref 0
  and qos_refused = ref 0
  and edge_failures = ref 0
  and edge_repairs = ref 0
  and activations = ref 0
  and drops = ref 0
  and restores = ref 0
  and backup_losses = ref 0 in
  (* Expected drcomm.* counters, predicted from the returned reports: a
     successful restoration is an internal admit, and with restoration
     on, each drop is a failed restoration attempt — an internal admit
     rejection. *)
  let expected () =
    {
      Invariants.admits = !admitted + !restores;
      rejects = (!rejected + if cfg.restore_on_failure then !drops else 0);
      terminations = !terminated;
      link_failures = !edge_failures;
      link_repairs = !edge_repairs;
      backup_activations = !activations;
      backup_losses = !backup_losses;
      drops = !drops;
      restores = !restores;
    }
  in
  let channel id =
    match Drcomm.channel_of_id t id with
    | Some ch -> ch
    | None -> failwith (Printf.sprintf "live channel %d has no handle" id)
  in
  let apply op =
    let live = List.map Drcomm.Channel_id.to_int (Drcomm.active_channels t) in
    let failed = Net_state.failed_edges net in
    match
      reduce ~nodes:n ~edges:ec ~live:(List.sort compare live)
        ~failed:(List.sort compare failed) op
    with
    | None -> ()
    | Some (Op.Admit { src; dst; qos }) -> (
      match Drcomm.admit t ~src ~dst ~qos:qos_palette.(qos) with
      | Drcomm.Admitted _ -> incr admitted
      | Drcomm.Rejected _ -> incr rejected)
    | Some (Op.Terminate id) ->
      ignore (Drcomm.terminate t (channel id));
      incr terminated
    | Some (Op.Change_qos (id, q)) -> (
      match Drcomm.change_qos t (channel id) qos_palette.(q) with
      | `Changed -> incr qos_changed
      | `Rejected -> incr qos_refused)
    | Some (Op.Fail e) ->
      let fresh = not (Net_state.edge_failed net e) in
      let r = Drcomm.fail_edge t e in
      if fresh then incr edge_failures
      else if
        r.Drcomm.recoveries <> [] || r.Drcomm.event.Drcomm.transitions <> []
      then failwith "fail_edge on an already-failed edge was not a no-op";
      List.iter
        (fun { Drcomm.outcome; _ } ->
          match outcome with
          | `Switched_to_backup _ -> incr activations
          | `Dropped -> incr drops
          | `Restored _ -> incr restores
          | `Backup_lost _ -> incr backup_losses)
        r.Drcomm.recoveries
    | Some (Op.Repair e) ->
      (* With nothing failed the op aims at a healthy edge: a strict
         no-op, counters included. *)
      if failed <> [] then incr edge_repairs;
      Drcomm.repair_edge t e
    | Some (Op.Set_auto b) ->
      let was = Drcomm.auto_redistribute t in
      Drcomm.set_auto_redistribute t b;
      (* Re-establish the water-filling fixed point the invariant
         expects whenever redistribution comes back on. *)
      if b && not was then Drcomm.redistribute_all t
    | Some Op.Redistribute_all -> Drcomm.redistribute_all t
  in
  let violation = ref None in
  let at = ref 0 in
  Obs.set_clock obs (fun () -> float_of_int !at);
  (try
     Array.iteri
       (fun i op ->
         at := i;
         apply op;
         let deep = cfg.deep_every > 0 && (i + 1) mod cfg.deep_every = 0 in
         Invariants.check_all ~expected:(expected ()) ~metrics ~deep t;
         extra_invariant t)
       ops
   with e ->
     let message =
       match e with Failure m -> m | e -> Printexc.to_string e
     in
     violation := Some { index = !at; op = ops.(!at); message });
  let stats =
    {
      ops_run =
        (match !violation with
        | Some v -> v.index + 1
        | None -> Array.length ops);
      admitted = !admitted;
      rejected = !rejected;
      terminated = !terminated;
      qos_changed = !qos_changed;
      qos_refused = !qos_refused;
      edge_failures = !edge_failures;
      edge_repairs = !edge_repairs;
      activations = !activations;
      drops = !drops;
      restores = !restores;
      backup_losses = !backup_losses;
      live = Drcomm.count t;
    }
  in
  { stats; violation = !violation; flight = Flight.events flight }

(* ------------------------------------------------------------------ *)
(* Shrinking: classic ddmin over the op script                         *)

(* A locally-minimal subsequence that still fails under [replay]:
   1-minimal, so removing any single remaining op makes the failure
   disappear. *)
let shrink_script ?extra_invariant cfg ops =
  let fails lst =
    (replay ?extra_invariant cfg (Array.of_list lst)).violation <> None
  in
  let rec ddmin lst gran =
    let len = List.length lst in
    if len < 2 then lst
    else begin
      let chunk = max 1 (len / gran) in
      let rec attempt start =
        if start >= len then None
        else
          let cand =
            List.filteri (fun i _ -> i < start || i >= start + chunk) lst
          in
          if cand <> [] && fails cand then Some cand else attempt (start + chunk)
      in
      match attempt 0 with
      | Some smaller -> ddmin smaller (max 2 (gran - 1))
      | None -> if chunk <= 1 then lst else ddmin lst (min len (gran * 2))
    end
  in
  Array.of_list (ddmin (Array.to_list ops) 2)

(* ------------------------------------------------------------------ *)
(* Top-level runs and the reproducer format                            *)

type failure = {
  config : config;
  script : Op.t array;
  violation : violation;
  stats : stats;
  flight : (float * Trace.event) list;
}

let run ?extra_invariant ?(shrink = true) cfg =
  let ops = gen_ops cfg in
  let r = replay ?extra_invariant cfg ops in
  match r.violation with
  | None -> Ok r.stats
  | Some v ->
    let prefix = Array.sub ops 0 (v.index + 1) in
    let script =
      if shrink then shrink_script ?extra_invariant cfg prefix else prefix
    in
    (* The black box comes from the final (shrunk) replay, so its events
       line up with the reproducer script's op indices. *)
    let final = replay ?extra_invariant cfg script in
    let violation = match final.violation with Some v' -> v' | None -> v in
    Error { config = cfg; script; violation; stats = r.stats; flight = final.flight }

let config_line cfg =
  Printf.sprintf
    "# fuzz family=%s seed=%d nodes=%d capacity=%d backups=%d restore=%b \
     multiplexing=%b policy=%s deep-every=%d"
    (family_name cfg.family) cfg.seed cfg.nodes cfg.capacity
    cfg.backups_per_connection cfg.restore_on_failure cfg.multiplexing
    (Format.asprintf "%a" Policy.pp cfg.policy)
    cfg.deep_every

let to_script f =
  let b = Buffer.create 512 in
  Buffer.add_string b "# drqos fuzz reproducer\n";
  Buffer.add_string b (config_line f.config);
  Buffer.add_char b '\n';
  Printf.bprintf b "# violation at op %d (%s): %s\n" f.violation.index
    (Op.to_string f.violation.op)
    f.violation.message;
  Array.iter
    (fun op ->
      Buffer.add_string b (Op.to_string op);
      Buffer.add_char b '\n')
    f.script;
  Buffer.contents b

(* The [# fuzz k=v] header dialect, as one {!Cliopt.parse_kv} spec table
   over a config cell — the same parser the bench drivers use for their
   flag tables. *)
let header_specs acc =
  let as_int key f =
    ( key,
      fun v ->
        match int_of_string_opt v with
        | Some n ->
          acc := f !acc n;
          Ok ()
        | None -> Error (Printf.sprintf "bad integer for %s: %S" key v) )
  in
  let as_bool key f =
    ( key,
      fun v ->
        match bool_of_string_opt v with
        | Some b ->
          acc := f !acc b;
          Ok ()
        | None -> Error (Printf.sprintf "bad boolean for %s: %S" key v) )
  in
  [
    ( "family",
      fun v ->
        match family_of_string v with
        | Some f ->
          acc := { !acc with family = f };
          Ok ()
        | None -> Error (Printf.sprintf "unknown family %S" v) );
    as_int "seed" (fun c n -> { c with seed = n });
    as_int "nodes" (fun c n -> { c with nodes = n });
    as_int "capacity" (fun c n -> { c with capacity = n });
    as_int "backups" (fun c n -> { c with backups_per_connection = n });
    as_int "deep-every" (fun c n -> { c with deep_every = n });
    as_bool "restore" (fun c b -> { c with restore_on_failure = b });
    as_bool "multiplexing" (fun c b -> { c with multiplexing = b });
    ( "policy",
      fun v ->
        match Policy.of_string v with
        | Some p ->
          acc := { !acc with policy = p };
          Ok ()
        | None -> Error (Printf.sprintf "unknown policy %S" v) );
  ]

let split_kvs kvs =
  let rec go = function
    | [] -> Ok []
    | "" :: rest -> go rest
    | kv :: rest -> (
      match String.index_opt kv '=' with
      | None -> Error (Printf.sprintf "malformed key=value %S" kv)
      | Some i -> (
        let key = String.sub kv 0 i in
        let v = String.sub kv (i + 1) (String.length kv - i - 1) in
        match go rest with Ok l -> Ok ((key, v) :: l) | Error _ as e -> e))
  in
  go kvs

let parse_script text =
  let base = config ~family:Waxman ~seed:1 ~ops:0 () in
  let rec fold cfg ops = function
    | [] -> Ok (cfg, Array.of_list (List.rev ops))
    | line :: rest -> (
      let line = String.trim line in
      if line = "" then fold cfg ops rest
      else if line.[0] = '#' then
        match String.split_on_char ' ' line with
        | "#" :: "fuzz" :: kvs -> (
          match split_kvs kvs with
          | Error _ as e -> e
          | Ok pairs -> (
            let acc = ref cfg in
            match Cliopt.parse_kv ~specs:(header_specs acc) pairs with
            | Ok () -> fold !acc ops rest
            | Error _ as e -> e))
        | _ -> fold cfg ops rest
      else
        match Op.of_string line with
        | Some op -> fold cfg (op :: ops) rest
        | None -> Error (Printf.sprintf "unparseable op %S" line))
  in
  match fold base [] (String.split_on_char '\n' text) with
  | Ok (cfg, ops) -> Ok ({ cfg with ops = Array.length ops }, ops)
  | Error _ as e -> e
