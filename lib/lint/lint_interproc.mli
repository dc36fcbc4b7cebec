(** The interprocedural analysis engine behind rules R6–R9.

    One typed-AST pass per compilation unit ({!summarize}) distils each
    unit into plain data: per-definition summaries — the globals a body
    references, its direct blocking calls, wall-clock reads, unbounded
    List/Seq traversals, and whether the binding itself holds shared
    mutable state — plus every [Sweep.map] / [Sweep.open_loop] /
    [Domain.spawn] call site with the globals its worker closure
    captures.  {!build} links the summaries into a cross-unit database;
    rules then run configurable fix-points over it ({!transitive} for
    backward taint with sanitizer stops, {!reachable} for forward
    call-graph closure) and render their messages from {!witness} /
    {!path_from} chains. *)

type unit_info = {
  u_source : string;  (** build-root-relative source path *)
  u_modname : string;
  u_structure : Typedtree.structure;
}

type pos = { line : int; col : int }

type use = { u_name : string; u_pos : pos }
(** One reference to a global, e.g. [Obs.set_default] or [Drcomm.admit];
    locals resolve to a [Module.name] that matches no definition and
    falls out of every fix-point. *)

type def = {
  d_name : string;
  d_pos : pos;
  d_refs : use list;  (** first occurrence per referenced name *)
  d_blocking : use list;
  d_wall : use list;
  d_traversals : use list;
  d_mutable : string option;
      (** [Some kind] when the binding holds shared mutable state
          (ref/array/Hashtbl.t/…, or a literal with a mutable field). *)
}

type spawn = { sp_kind : string; sp_pos : pos; sp_worker : use list }

type summary = {
  s_source : string;
  s_modname : string;
  s_defs : def list;
  s_spawns : spawn list;
}

type t

module SS : Set.S with type elt = string

val wall_prims : SS.t
(** The wall-clock reads recorded in [d_wall]: R9's taint seeds. *)

val summarize : unit_info -> summary
(** The single AST pass; everything else is pure data manipulation. *)

val build : summary list -> t

val units : t -> summary list

val find_def : t -> string -> (def * summary) option

val transitive :
  t -> seeds:SS.t -> ?stop:(summary -> def -> bool) -> unit -> SS.t
(** Backward fix-point: the least set [T] of definition names such that
    a def is in [T] exactly when [stop] does not hold for it and its
    body references a member of [seeds ∪ T].  [stop] is the sanitizer hook —
    a stopped def neither joins [T] nor propagates taint upward. *)

val witness : t -> seeds:SS.t -> tainted:SS.t -> string -> string list option
(** [witness t ~seeds ~tainted name] is the shortest reference chain
    [[name; …; seed]] explaining why [name] is tainted (BFS in recorded
    reference order, hence deterministic). *)

val reachable : t -> roots:SS.t -> SS.t
(** Forward closure over the call graph from [roots] (roots that resolve
    to definitions are included). *)

val path_from : t -> roots:SS.t -> string -> string list option
(** Shortest call chain [[root; …; name]], for message rendering. *)
