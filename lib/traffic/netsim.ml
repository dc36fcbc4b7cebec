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
  monitor : Interval_qos.monitor option;
  skip_threshold : int;
  mutable sent : int;
  mutable delivered : int;
  mutable missed : int;
  mutable skipped : int;
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
  m_skipped : Metrics.counter;
}

let create ?(propagation_delay = 0.) ?obs engine graph ~rate_of =
  if propagation_delay < 0. then invalid_arg "Netsim.create: negative propagation delay";
  let obs = match obs with Some o -> o | None -> Obs.default () in
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
    m_skipped = Obs.counter obs "netsim.packets_skipped";
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
  let on_time = now <= p.e2e_deadline in
  if not on_time then begin
    flow_state.missed <- flow_state.missed + 1;
    Metrics.incr t.m_missed
  end;
  Option.iter
    (fun mon -> Interval_qos.record mon ~delivered:on_time)
    flow_state.monitor

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
    ignore
      (Engine.schedule t.engine ~delay:tx (fun _ ->
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
           else
             ignore
               (Engine.schedule t.engine ~delay:t.propagation_delay (fun _ ->
                    arrive t p));
           start_service t dl))

and arrive t p =
  let dl = p.path.(p.hop) in
  let s = t.servers.(dl) in
  s.queue <- insert_by_deadline p s.queue;
  if not s.busy then start_service t dl

(* Skip-over decision: congested first hop + a window that tolerates the
   loss. *)
let should_skip t flow_state =
  match flow_state.monitor with
  | None -> false
  | Some mon ->
    let first = t.servers.(flow_state.fpath.(0)) in
    List.length first.queue >= flow_state.skip_threshold && Interval_qos.can_skip mon

let rec source_tick t flow_state () =
  let now = Engine.now t.engine in
  if now < flow_state.stop then begin
    if Traffic_spec.Bucket.try_consume flow_state.bucket ~now then begin
      if should_skip t flow_state then begin
        flow_state.skipped <- flow_state.skipped + 1;
        Metrics.incr t.m_skipped;
        Option.iter
          (fun mon -> Interval_qos.record mon ~delivered:false)
          flow_state.monitor
      end
      else begin
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
      end
    end;
    let next = Traffic_spec.Bucket.next_conforming_time flow_state.bucket ~now in
    let delay = Float.max (next -. now) 1e-9 in
    ignore (Engine.schedule t.engine ~delay (fun _ -> source_tick t flow_state ()))
  end

let add_flow t ~path ~spec ~deadline ?start ?interval ?(skip_threshold = 4) ~stop () =
  if path = [] then invalid_arg "Netsim.add_flow: empty path";
  if deadline <= 0. then invalid_arg "Netsim.add_flow: non-positive deadline";
  if skip_threshold < 1 then invalid_arg "Netsim.add_flow: skip_threshold >= 1";
  List.iter
    (fun dl ->
      if dl < 0 || dl >= Array.length t.servers then
        invalid_arg "Netsim.add_flow: link id out of range")
    path;
  let fid = t.next_flow in
  t.next_flow <- fid + 1;
  let start = Option.value ~default:(Engine.now t.engine) start in
  let flow_state =
    {
      fid;
      fpath = Array.of_list path;
      spec;
      deadline;
      stop;
      bucket = Traffic_spec.Bucket.create spec;
      monitor = Option.map Interval_qos.create interval;
      skip_threshold;
      sent = 0;
      delivered = 0;
      missed = 0;
      skipped = 0;
      delay_acc = Stats.Welford.create ();
      worst = 0.;
    }
  in
  Hashtbl.replace t.flows fid flow_state;
  ignore
    (Engine.schedule_at t.engine ~time:(Float.max start (Engine.now t.engine))
       (fun _ -> source_tick t flow_state ()));
  fid

type stats = {
  sent : int;
  delivered : int;
  missed : int;
  skipped : int;
  in_flight : int;
  delay : Stats.Welford.t;
  worst_delay : float;
  contract_violations : int option;
}

let stats t fid =
  match Hashtbl.find_opt t.flows fid with
  | None -> raise Not_found
  | Some f ->
    {
      sent = f.sent;
      delivered = f.delivered;
      missed = f.missed;
      skipped = f.skipped;
      in_flight = f.sent - f.delivered;
      delay = f.delay_acc;
      worst_delay = f.worst;
      contract_violations = Option.map Interval_qos.violations f.monitor;
    }

let link_busy_time t dl =
  if dl < 0 || dl >= Array.length t.servers then
    invalid_arg "Netsim.link_busy_time: out of range";
  t.servers.(dl).busy_time

let total_delivered t = t.delivered_total
