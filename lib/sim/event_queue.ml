type 'a entry = { time : float; seq : int; payload : 'a }

(* Vacated heap slots are nulled so popped payloads become collectable
   immediately (hence the option array). *)
type 'a t = {
  mutable heap : 'a entry option array;
  mutable size_heap : int;
  mutable next_seq : int;
}

let create ?(capacity = 0) () =
  {
    heap = (if capacity > 0 then Array.make capacity None else [||]);
    size_heap = 0;
    next_seq = 0;
  }

let earlier a b = a.time < b.time || (Float.equal a.time b.time && a.seq < b.seq)

let get arr i = match arr.(i) with Some e -> e | None -> assert false

let ensure_capacity t =
  let len = Array.length t.heap in
  if t.size_heap = len then begin
    let bigger = Array.make (max 64 (2 * len)) None in
    Array.blit t.heap 0 bigger 0 t.size_heap;
    t.heap <- bigger
  end

let add t ~time payload =
  if not (Float.is_finite time) then invalid_arg "Event_queue.add: non-finite time";
  let entry = { time; seq = t.next_seq; payload } in
  t.next_seq <- t.next_seq + 1;
  ensure_capacity t;
  let arr = t.heap in
  let i = ref t.size_heap in
  arr.(!i) <- Some entry;
  t.size_heap <- t.size_heap + 1;
  while !i > 0 && earlier (get arr !i) (get arr ((!i - 1) / 2)) do
    let parent = (!i - 1) / 2 in
    let tmp = arr.(!i) in
    arr.(!i) <- arr.(parent);
    arr.(parent) <- tmp;
    i := parent
  done

let sift_down arr size =
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < size && earlier (get arr l) (get arr !smallest) then smallest := l;
    if r < size && earlier (get arr r) (get arr !smallest) then smallest := r;
    if !smallest = !i then continue := false
    else begin
      let tmp = arr.(!i) in
      arr.(!i) <- arr.(!smallest);
      arr.(!smallest) <- tmp;
      i := !smallest
    end
  done

(* Remove and return the root, nulling the vacated slot. *)
let pop t =
  if t.size_heap = 0 then None
  else begin
    let arr = t.heap in
    let top = get arr 0 in
    t.size_heap <- t.size_heap - 1;
    arr.(0) <- arr.(t.size_heap);
    arr.(t.size_heap) <- None;
    sift_down arr t.size_heap;
    Some (top.time, top.payload)
  end

let peek_time t = if t.size_heap = 0 then None else Some (get t.heap 0).time

let size t = t.size_heap
