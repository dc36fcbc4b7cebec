(** Tables keyed by the system's int ids — channel ids, edge ids.

    The stdlib's buckets and resize policy, with an int hash and
    equality that make no C call: a lookup costs an array index and an
    int compare, where the polymorphic [Hashtbl] calls [caml_hash].
    [Link_state]'s slot tables and [Drcomm]'s live-channel table use
    it. *)

include Hashtbl.S with type key = int
