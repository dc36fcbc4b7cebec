(** Rule catalogue and findings for the project linter.

    [drqos_lint] walks the typed AST recorded in the [.cmt] files dune
    already produces and rejects, at build time, the bug classes the
    fuzzer (PR 3) and the trace audit (PR 4) kept finding at runtime:
    float [=] in numerical code, catch-alls silently absorbing new
    constructors of closed project variants, partial stdlib functions,
    swallowed exceptions, stray prints bypassing {!Obs}, and global
    observability state mutated from inside [Sweep.map] workers.

    This module holds what every layer shares: rule identities,
    severities, and the finding record with its text/JSON renderings.
    The analyses themselves live in {!Lint_rules} (syntactic, per
    compilation unit) and, for everything that crosses function or
    module boundaries, in {!Lint_flow} on the {!Lint_interproc} engine
    (R6 Obs state in workers, R7 cross-domain races, R8 event-loop
    hygiene, R9 wall-clock taint).  {!Lint_driver} orchestrates, and
    {!Lint_baseline} applies suppressions. *)

type rule_id = R1 | R2 | R3 | R4 | R5 | R6 | R7 | R8 | R9

type severity = Error | Warning

val all_rules : rule_id list
(** In catalogue order, R1 first. *)

val rule_name : rule_id -> string
(** ["R1"] .. ["R9"]. *)

val rule_of_name : string -> rule_id option

val severity : rule_id -> severity

val describe : rule_id -> string
(** One-line catalogue entry, e.g. for [--help] output. *)

type finding = {
  rule : rule_id;
  file : string;  (** build-root-relative source path, e.g. [lib/obs/trace.ml]. *)
  line : int;  (** 1-based. *)
  col : int;  (** 0-based, matching compiler diagnostics. *)
  message : string;
}

val compare_finding : finding -> finding -> int
(** Orders by file, then line, column, rule — the report order. *)

val finding_to_string : finding -> string
(** [file:line:col: [R1/error] message] — one line, no trailing newline. *)

val finding_to_json : finding -> Jsonx.t
(** [{"rule","severity","file","line","col","message"}]. *)

val severity_name : severity -> string
