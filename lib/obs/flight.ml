(* The ring stores (time, event) pairs in a pre-sized array indexed by
   [seen mod capacity]; recording is two stores and a bump, cheap enough
   to leave on under a full fuzz run. *)

type t = {
  on : bool;
  times : float array;
  evs : Trace.event option array;
  mutable seen : int;
}

let disabled = { on = false; times = [||]; evs = [||]; seen = 0 }

let create ?(capacity = 1024) () =
  if capacity < 1 then invalid_arg "Flight.create: capacity >= 1";
  { on = true; times = Array.make capacity 0.; evs = Array.make capacity None; seen = 0 }

let enabled t = t.on

let record t ~time ev =
  if t.on then begin
    let i = t.seen mod Array.length t.evs in
    t.times.(i) <- time;
    t.evs.(i) <- Some ev;
    t.seen <- t.seen + 1
  end

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

let clear t =
  if t.on then begin
    Array.fill t.evs 0 (Array.length t.evs) None;
    t.seen <- 0
  end

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
