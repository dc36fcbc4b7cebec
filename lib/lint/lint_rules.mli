(** The per-compilation-unit syntactic rules (R1–R5).

    Each check walks one typed AST with a {!Tast_iterator} and emits
    {!Lint.finding}s through the context's [emit] callback.  The
    cross-unit rules (R6–R9) run on {!Lint_interproc}; this module only
    exposes the shared helpers its summariser needs. *)

type ctx = {
  source : string;
      (** build-root-relative source path recorded in the [.cmt], e.g.
          [lib/obs/trace.ml] — findings carry it verbatim. *)
  modname : string;  (** compilation unit name, e.g. [Trace]. *)
  lib_prefix : string;
      (** path prefix delimiting "library code" for the scoped rules
          (R3, R5); [lib/] in production, the fixture directory in
          tests. *)
  enabled : Lint.rule_id -> bool;
  emit : Lint.finding -> unit;
}

val check_structure : ctx -> Typedtree.structure -> unit
(** Run R1–R5 over one implementation.  R2 guards the closed variants
    [Trace.event] and [Op.t]. *)

(** {2 Shared typed-AST helpers (used by {!Lint_interproc})} *)

val ident_name : Path.t -> string
(** [Path.name] with any [Stdlib.] prefix stripped, so [=] and
    [List.hd] read the same however they were written. *)

val global_name : modname:string -> Path.t -> string option
(** The project-global name a path refers to: [Some "M.x"] for a
    cross-unit [M.x], [Some "<modname>.x"] for a unit-local top-level
    [x] (resolved optimistically — local shadowing is ignored), [None]
    for compiler-internal paths. *)
