(* R9 fixtures: the wall clock reached directly, through an alias,
   through a two-deep re-export chain, through a call into a submodule
   of this unit, and through a binding operator.  The monotonic Clock
   path is the control. *)

let now = Unix.gettimeofday (* line 6: R9 (aliased re-export) *)

let timestamp () = now () (* line 8: R9 (tainted: now) *)

let stamp_label () = Printf.sprintf "t=%f" (timestamp ()) (* line 10: R9 *)

let cpu_seconds () = Sys.time () (* line 12: R9 (direct read) *)

let mono_ok () = Clock.now ()

module Sub = struct
  let now () = Unix.time () (* line 17: R9 (direct read) *)
end

let sub_stamp () = Sub.now () (* line 20: R9 (tainted: Lintfix_clock.Sub.now) *)

let ( let* ) x f = f (x +. Sys.time ()) (* line 22: R9 (direct read) *)

let letop_stamp () =
  let* t = 0. in (* line 25: R9 (tainted: Lintfix_clock.let* ) *)
  t
