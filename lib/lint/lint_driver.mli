(** Orchestration: find [.cmt] files, load their typed ASTs, run every
    enabled rule, and return the sorted findings.

    Each [.cmt] is read once: R1–R5 walk its typedtree (skipped when
    none of them is enabled), then {!Lint_interproc} summarises it, and
    R6–R9 run over the summaries.

    The driver never prints — the executable owns presentation — and it
    reports unreadable inputs and roots that yield no implementation
    unit as [Error] rather than skipping them: a gate that silently
    analysed nothing would pass vacuously. *)

type config = {
  roots : string list;
      (** files or directories searched recursively for [.cmt]; dune
          puts them under [_build/default/<dir>/.<lib>.objs/byte]. *)
  rules : Lint.rule_id list;  (** enabled rules. *)
  lib_prefix : string;
      (** source-path prefix delimiting library code for R3/R5
          (production default ["lib/"]). *)
  r8_roots : string list;
      (** R8's event-loop dispatch entry points, as [Module.name]
          (default {!Lint_flow.default_r8_roots}). *)
}

val default_config : roots:string list -> config
(** Every rule, [lib_prefix = "lib/"], default R8 roots. *)

val run : config -> (Lint.finding list, string) result
(** Sorted, deduplicated findings over every implementation [.cmt]
    reachable from [roots].  [Error] on an unreadable root, a [.cmt]
    that cannot be loaded, or a root with no implementation [.cmt]. *)

val report_json :
  findings:Lint.finding list ->
  suppressed:int ->
  stale:Lint_baseline.entry list ->
  Jsonx.t
(** The [--format json] document:
    [{"findings":[...],"suppressed":n,"stale_baseline":[...],"clean":b}]
    where [clean] mirrors the process exit status. *)

val github_annotation : Lint.finding -> string
(** The [--format github] rendering: one
    [::error file=...,line=...,col=...::R7: message] workflow command
    per finding, severities mapped to annotation levels, [%]/[,]/[:]
    escaped per the workflow-command rules. *)
