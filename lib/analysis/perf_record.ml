type scale = Full | Quick

type gc = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

let with_gc f =
  let g0 = Gc.quick_stat () in
  let result = f () in
  let g1 = Gc.quick_stat () in
  ( result,
    {
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
      major_words = g1.Gc.major_words -. g0.Gc.major_words;
      minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
      major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    } )

type plateau = { live : int; ops : int; ops_per_sec : float; us_per_op : float }
type latency = { p50 : float; p95 : float; p99 : float; p999 : float; max : float }

type serve = {
  requests : int;
  rate_rps : float;
  live_target : int;
  arrivals : string;
  achieved_rps : float;
  max_lag_s : float;
  latency_s : latency;
  rejected : int;
  stale : int;
  errors : int;
  slo_good : int;
  slo_bad : int;
}

(* A record is its JSON document; the constructors below fix each
   layout's key order. *)
type t = Jsonx.t

let scale_json s = Jsonx.String (match s with Full -> "full" | Quick -> "quick")

let gc_json g =
  Jsonx.Obj
    [
      ("minor_words", Jsonx.Float g.minor_words);
      ("promoted_words", Jsonx.Float g.promoted_words);
      ("major_words", Jsonx.Float g.major_words);
      ("minor_collections", Jsonx.Int g.minor_collections);
      ("major_collections", Jsonx.Int g.major_collections);
    ]

let floats fields = Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.Float v)) fields)

let bench ~experiment ~scale ~jobs ~wall_s ~gc ~metrics ~spans ?plateaus () =
  let plateau p =
    Jsonx.Obj
      [
        ("live", Jsonx.Int p.live);
        ("ops", Jsonx.Int p.ops);
        ("ops_per_sec", Jsonx.Float p.ops_per_sec);
        ("us_per_op", Jsonx.Float p.us_per_op);
      ]
  in
  Jsonx.Obj
    ([
       ("experiment", Jsonx.String experiment);
       ("scale", scale_json scale);
       ("jobs", Jsonx.Int jobs);
       ("wall_s", Jsonx.Float wall_s);
       ("gc", gc_json gc);
       ("metrics", Metrics.snapshot metrics);
       ("spans", Span.to_json spans);
     ]
    @ match plateaus with
      | None -> []
      | Some ps -> [ ("plateaus", Jsonx.List (List.map plateau ps)) ])

let serve ~scale ~jobs ~wall_s ~gc ~stage_p99_s s =
  let l = s.latency_s in
  Jsonx.Obj
    [
      ("experiment", Jsonx.String "serve");
      ("scale", scale_json scale);
      ("requests", Jsonx.Int s.requests);
      ("jobs", Jsonx.Int jobs);
      ("rate_rps", Jsonx.Float s.rate_rps);
      ("live_target", Jsonx.Int s.live_target);
      ("arrivals", Jsonx.String s.arrivals);
      ("wall_s", Jsonx.Float wall_s);
      ("achieved_rps", Jsonx.Float s.achieved_rps);
      ("max_lag_s", Jsonx.Float s.max_lag_s);
      ( "latency_s",
        floats
          [
            ("p50", l.p50); ("p95", l.p95); ("p99", l.p99); ("p999", l.p999);
            ("max", l.max);
          ] );
      ("rejected", Jsonx.Int s.rejected);
      ("stale", Jsonx.Int s.stale);
      ("errors", Jsonx.Int s.errors);
      ("slo_good", Jsonx.Int s.slo_good);
      ("slo_bad", Jsonx.Int s.slo_bad);
      ("stage_p99_s", floats stage_p99_s);
      ("gc", gc_json gc);
    ]

let write oc t =
  Jsonx.output oc t;
  output_char oc '\n'

let number t key = Option.bind (Jsonx.member key t) Jsonx.to_float

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> (
    match Jsonx.of_string (String.trim text) with
    | exception Jsonx.Parse_error msg -> Error (Printf.sprintf "%s: %s" path msg)
    | t when Option.is_some (number t "wall_s") -> Ok t
    | _ -> Error (Printf.sprintf "%s: missing or ill-typed wall_s" path))

(* [load] and both constructors guarantee the field. *)
let wall_s t = Option.value (number t "wall_s") ~default:nan
let major_words t = Option.bind (Jsonx.member "gc" t) (fun gc -> number gc "major_words")

let tables t =
  let spans =
    match Jsonx.member "spans" t with
    | Some (Jsonx.List l) ->
      List.filter_map
        (fun s ->
          match
            ( Option.bind (Jsonx.member "name" s) Jsonx.to_str,
              Option.bind (Jsonx.member "self_s" s) Jsonx.to_float )
          with
          | Some name, Some self -> Some (name, self)
          | _ -> None)
        l
    | _ -> []
  in
  let stages =
    match Jsonx.member "stage_p99_s" t with
    | Some (Jsonx.Obj fields) ->
      List.filter_map
        (fun (name, v) -> Option.map (fun f -> (name, f)) (Jsonx.to_float v))
        fields
    | _ -> []
  in
  [ ("span (self_s)", spans); ("stage (p99_s)", stages) ]

let join a b =
  List.map
    (fun name -> (name, List.assoc_opt name a, List.assoc_opt name b))
    (List.sort_uniq compare (List.map fst a @ List.map fst b))

let pct_change from_v to_v =
  if from_v > 0. then 100. *. (to_v -. from_v) /. from_v else 0.

let regressed ~max_pct base fresh = fresh > base *. (1. +. (max_pct /. 100.))
