type record = {
  name : string;
  depth : int;
  start_s : float;
  total_s : float;
  self_s : float;
  minor_words : float;
  major_words : float;
}

type agg = {
  agg_name : string;
  count : int;
  agg_total_s : float;
  agg_self_s : float;
  agg_minor_words : float;
  agg_major_words : float;
}

type frame = {
  f_name : string;
  f_depth : int;
  f_start : float;
  f_minor0 : float;
  f_major0 : float;
  mutable f_child_total : float;
}

(* Aggregates accumulate in place so a long profiled run stays O(name
   count); the per-instance records are what the cap bounds. *)
type agg_cell = {
  mutable a_count : int;
  mutable a_total : float;
  mutable a_self : float;
  mutable a_minor : float;
  mutable a_major : float;
}

type t = {
  on : bool;
  epoch : float;
  keep : int;
  mutable stack : frame list;
  mutable recs : record list; (* newest first *)
  mutable n_recs : int;
  mutable dropped : int;
  aggs : (string, agg_cell) Hashtbl.t;
}

let disabled =
  {
    on = false;
    epoch = 0.;
    keep = 0;
    stack = [];
    recs = [];
    n_recs = 0;
    dropped = 0;
    aggs = Hashtbl.create 1;
  }

let create ?(keep = 4096) () =
  if keep < 0 then invalid_arg "Span.create: negative keep";
  {
    on = true;
    epoch = Clock.now ();
    keep;
    stack = [];
    recs = [];
    n_recs = 0;
    dropped = 0;
    aggs = Hashtbl.create 32;
  }

let enabled t = t.on

let depth t = List.length t.stack

let now t = Clock.now () -. t.epoch

let frame_start f = f.f_start

let enter t name =
  if not t.on then None
  else begin
    let minor, _, major = Gc.counters () in
    let f =
      {
        f_name = name;
        f_depth = List.length t.stack;
        f_start = now t;
        f_minor0 = minor;
        f_major0 = major;
        f_child_total = 0.;
      }
    in
    t.stack <- f :: t.stack;
    Some f
  end

let agg_cell t name =
  match Hashtbl.find_opt t.aggs name with
  | Some c -> c
  | None ->
    let c = { a_count = 0; a_total = 0.; a_self = 0.; a_minor = 0.; a_major = 0. } in
    Hashtbl.replace t.aggs name c;
    c

let add t r =
  if t.on then begin
    if t.n_recs < t.keep then begin
      t.recs <- r :: t.recs;
      t.n_recs <- t.n_recs + 1
    end
    else t.dropped <- t.dropped + 1;
    let c = agg_cell t r.name in
    c.a_count <- c.a_count + 1;
    c.a_total <- c.a_total +. r.total_s;
    c.a_self <- c.a_self +. r.self_s;
    c.a_minor <- c.a_minor +. r.minor_words;
    c.a_major <- c.a_major +. r.major_words
  end

let exit t frame =
  if not t.on then None
  else begin
    (match t.stack with
    | top :: rest when top == frame -> t.stack <- rest
    | _ -> invalid_arg "Span.exit: frame is not the innermost open span");
    let minor, _, major = Gc.counters () in
    let total = now t -. frame.f_start in
    (* The monotonic clock cannot run backwards, but a child's recorded
       total can still exceed its parent's raw reading by rounding; the
       clamp keeps self times non-negative by construction. *)
    let total = Float.max total frame.f_child_total in
    let self = Float.max 0. (total -. frame.f_child_total) in
    (match t.stack with
    | parent :: _ -> parent.f_child_total <- parent.f_child_total +. total
    | [] -> ());
    let r =
      {
        name = frame.f_name;
        depth = frame.f_depth;
        start_s = frame.f_start;
        total_s = total;
        self_s = self;
        minor_words = Float.max 0. (minor -. frame.f_minor0);
        major_words = Float.max 0. (major -. frame.f_major0);
      }
    in
    add t r;
    Some r
  end

let wrap t name f =
  match enter t name with
  | None -> f ()
  | Some frame -> Fun.protect ~finally:(fun () -> ignore (exit t frame)) f

let records t = List.rev t.recs
let dropped_records t = t.dropped

let aggregate t =
  Hashtbl.fold
    (fun name c acc ->
      {
        agg_name = name;
        count = c.a_count;
        agg_total_s = c.a_total;
        agg_self_s = c.a_self;
        agg_minor_words = c.a_minor;
        agg_major_words = c.a_major;
      }
      :: acc)
    t.aggs []
  |> List.sort (fun a b ->
         match Float.compare b.agg_self_s a.agg_self_s with
         | 0 -> compare a.agg_name b.agg_name
         | c -> c)

let merge_into ~into src =
  if into.on && src.on then begin
    if into == src then invalid_arg "Span.merge_into: profiler merged into itself";
    Hashtbl.iter
      (fun name (c : agg_cell) ->
        let d = agg_cell into name in
        d.a_count <- d.a_count + c.a_count;
        d.a_total <- d.a_total +. c.a_total;
        d.a_self <- d.a_self +. c.a_self;
        d.a_minor <- d.a_minor +. c.a_minor;
        d.a_major <- d.a_major +. c.a_major)
      src.aggs;
    src.dropped <- src.dropped + src.n_recs (* records do not transfer *)
  end

let to_json t =
  Jsonx.List
    (List.map
       (fun a ->
         Jsonx.Obj
           [
             ("name", Jsonx.String a.agg_name);
             ("count", Jsonx.Int a.count);
             ("total_s", Jsonx.Float a.agg_total_s);
             ("self_s", Jsonx.Float a.agg_self_s);
             ("minor_words", Jsonx.Float a.agg_minor_words);
             ("major_words", Jsonx.Float a.agg_major_words);
           ])
       (aggregate t))
