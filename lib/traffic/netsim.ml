type flow_id = int

type packet = {
  flow : flow_id;
  created : float;
  e2e_deadline : float; (* absolute *)
  size_bits : int;
  per_hop_budget : float;
  path : Dirlink.id array;
  mutable hop : int; (* next link to traverse *)
}

(* Local EDF deadline at the packet's current hop: the even split of the
   end-to-end budget. *)
let local_deadline p = p.created +. (p.per_hop_budget *. float_of_int (p.hop + 1))

type server = {
  rate : Bandwidth.t;
  mutable busy : bool;
  mutable queue : packet list; (* sorted by local deadline *)
  mutable busy_time : float;
}

type flow_state = {
  fid : flow_id;
  fpath : Dirlink.id array;
  spec : Traffic_spec.t;
  deadline : float;
  stop : float;
  bucket : Traffic_spec.Bucket.bucket;
  mutable sent : int;
  mutable delivered : int;
  mutable missed : int;
  delay_acc : Stats.Welford.t;
  mutable worst : float;
}

type t = {
  engine : Engine.t;
  servers : server array;
  flows : (flow_id, flow_state) Hashtbl.t;
  propagation_delay : float;
  mutable next_flow : int;
  mutable delivered_total : int;
  m_sent : Metrics.counter;
  m_delivered : Metrics.counter;
  m_missed : Metrics.counter;
}

let create ?(propagation_delay = 0.) ?(obs = Obs.null) engine graph ~rate_of =
  if propagation_delay < 0. then invalid_arg "Netsim.create: negative propagation delay";
  {
    engine;
    servers =
      Array.init (Dirlink.count graph) (fun dl ->
          let rate = rate_of dl in
          if rate <= 0 then invalid_arg "Netsim.create: non-positive link rate";
          { rate; busy = false; queue = []; busy_time = 0. });
    flows = Hashtbl.create 32;
    propagation_delay;
    next_flow = 0;
    delivered_total = 0;
    m_sent = Obs.counter obs "netsim.packets_sent";
    m_delivered = Obs.counter obs "netsim.packets_delivered";
    m_missed = Obs.counter obs "netsim.deadline_misses";
  }

let insert_by_deadline p queue =
  let key = local_deadline p in
  let rec go = function
    | [] -> [ p ]
    | q :: rest as l -> if local_deadline q <= key then q :: go rest else p :: l
  in
  go queue

let deliver t flow_state p ~now =
  let delay = now -. p.created in
  flow_state.delivered <- flow_state.delivered + 1;
  t.delivered_total <- t.delivered_total + 1;
  Metrics.incr t.m_delivered;
  Stats.Welford.add flow_state.delay_acc delay;
  if delay > flow_state.worst then flow_state.worst <- delay;
  if now > p.e2e_deadline then begin
    flow_state.missed <- flow_state.missed + 1;
    Metrics.incr t.m_missed
  end

(* Mutual recursion: finishing a transmission hands the packet to the
   next hop (an arrival) and pulls the next packet into service. *)
let rec start_service t dl =
  let s = t.servers.(dl) in
  match s.queue with
  | [] -> s.busy <- false
  | p :: rest ->
    s.queue <- rest;
    s.busy <- true;
    let tx = float_of_int p.size_bits /. (float_of_int s.rate *. 1000.) in
    s.busy_time <- s.busy_time +. tx;
    Engine.schedule t.engine ~delay:tx (fun _ ->
        let now = Engine.now t.engine in
        p.hop <- p.hop + 1;
        if p.hop >= Array.length p.path then begin
          match Hashtbl.find_opt t.flows p.flow with
          | None ->
            (* Flows are registered before any packet is injected. *)
            assert false
          | Some flow_state ->
            deliver t flow_state p ~now:(now +. t.propagation_delay)
        end
        else if Float.equal t.propagation_delay 0. then arrive t p
        else Engine.schedule t.engine ~delay:t.propagation_delay (fun _ -> arrive t p);
        start_service t dl)

and arrive t p =
  let dl = p.path.(p.hop) in
  let s = t.servers.(dl) in
  s.queue <- insert_by_deadline p s.queue;
  if not s.busy then start_service t dl

let rec source_tick t flow_state () =
  let now = Engine.now t.engine in
  if now < flow_state.stop then begin
    if Traffic_spec.Bucket.try_consume flow_state.bucket ~now then begin
      flow_state.sent <- flow_state.sent + 1;
      Metrics.incr t.m_sent;
      let p =
        {
          flow = flow_state.fid;
          created = now;
          e2e_deadline = now +. flow_state.deadline;
          size_bits = flow_state.spec.Traffic_spec.packet_bits;
          per_hop_budget =
            flow_state.deadline /. float_of_int (Array.length flow_state.fpath);
          path = flow_state.fpath;
          hop = 0;
        }
      in
      arrive t p
    end;
    let next = Traffic_spec.Bucket.next_conforming_time flow_state.bucket ~now in
    let delay = Float.max (next -. now) 1e-9 in
    Engine.schedule t.engine ~delay (fun _ -> source_tick t flow_state ())
  end

let add_flow t ~path ~spec ~deadline ~stop =
  if path = [] then invalid_arg "Netsim.add_flow: empty path";
  if deadline <= 0. then invalid_arg "Netsim.add_flow: non-positive deadline";
  List.iter
    (fun dl ->
      if dl < 0 || dl >= Array.length t.servers then
        invalid_arg "Netsim.add_flow: link id out of range")
    path;
  let fid = t.next_flow in
  t.next_flow <- fid + 1;
  let flow_state =
    {
      fid;
      fpath = Array.of_list path;
      spec;
      deadline;
      stop;
      bucket = Traffic_spec.Bucket.create spec;
      sent = 0;
      delivered = 0;
      missed = 0;
      delay_acc = Stats.Welford.create ();
      worst = 0.;
    }
  in
  Hashtbl.replace t.flows fid flow_state;
  Engine.schedule_at t.engine ~time:(Engine.now t.engine) (fun _ ->
      source_tick t flow_state ());
  fid

type stats = {
  sent : int;
  delivered : int;
  missed : int;
  in_flight : int;
  delay : Stats.Welford.t;
  worst_delay : float;
}

let stats t fid =
  match Hashtbl.find_opt t.flows fid with
  | None -> raise Not_found
  | Some f ->
    {
      sent = f.sent;
      delivered = f.delivered;
      missed = f.missed;
      in_flight = f.sent - f.delivered;
      delay = f.delay_acc;
      worst_delay = f.worst;
    }

let link_busy_time t dl =
  if dl < 0 || dl >= Array.length t.servers then
    invalid_arg "Netsim.link_busy_time: out of range";
  t.servers.(dl).busy_time

let total_delivered t = t.delivered_total
