(* The ring stores (time, event) pairs in a pre-sized array indexed by
   [seen mod capacity]; recording is two stores and a bump, cheap enough
   to leave on under a full fuzz run. *)

type t = { times : float array; evs : Trace.event option array; mutable seen : int }

let create ?(capacity = 1024) () =
  if capacity < 1 then invalid_arg "Flight.create: capacity >= 1";
  { times = Array.make capacity 0.; evs = Array.make capacity None; seen = 0 }

let sink t (inner : Trace.sink) =
  let emit time ev =
    let i = t.seen mod Array.length t.evs in
    t.times.(i) <- time;
    t.evs.(i) <- Some ev;
    t.seen <- t.seen + 1;
    inner.emit time ev
  in
  { Trace.emit; close = inner.close }

let size t = min t.seen (Array.length t.evs)

let seen t = t.seen

let events t =
  let cap = Array.length t.evs in
  let n = size t in
  let first = t.seen - n in
  List.init n (fun k ->
      let i = (first + k) mod cap in
      match t.evs.(i) with
      | Some ev -> (t.times.(i), ev)
      | None -> assert false)

let header ~retained ~seen =
  Trace.Note
    {
      name = "flight_recorder";
      fields =
        [
          ("retained", Jsonx.Int retained);
          ("seen", Jsonx.Int seen);
          ("dropped", Jsonx.Int (seen - retained));
        ];
    }

let dump_line oc ~time ev =
  Jsonx.output oc (Trace.to_json ~time ev);
  output_char oc '\n'

let dump_with ~seen evs oc =
  let retained = List.length evs in
  let t0 = match evs with (time, _) :: _ -> time | [] -> 0. in
  dump_line oc ~time:t0 (header ~retained ~seen);
  List.iter (fun (time, ev) -> dump_line oc ~time ev) evs

let dump_events evs oc = dump_with ~seen:(List.length evs) evs oc

let dump_to_file t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      dump_with ~seen:t.seen (events t) oc)

(* A failing dump write must not mask the failure that triggered it. *)
let dump_on_raise t path f =
  match f () with
  | v -> v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    (if size t > 0 then
       try
         dump_to_file t path;
         Printf.eprintf "flight recorder dumped to %s\n%!" path
       with Sys_error _ -> ());
    Printexc.raise_with_backtrace e bt
