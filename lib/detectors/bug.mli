(** Metadata for a planted bug.

    Each buggy application version plants exactly one bug, Siemens-style. A
    bug is *detected* in a run when some detector report fires at one of the
    source lines named by [detect_tags] ([//@tag] markers in the MiniC
    source, so metadata survives edits). Memory bugs are detectable by the
    CCured and iWatcher detectors, semantic bugs by assertions. *)

type kind = Memory | Semantic

(** Section 7.1's four reasons a bug can escape even PathExpander. The
    workloads are engineered so the bugs genuinely behave this way. *)
type miss_category =
  | Value_coverage  (** needs a specific data value, not a path *)
  | Hot_entry_edge  (** buggy path's entry edge is hot, so never spawned *)
  | Inconsistency  (** forced-path state inconsistency masks the bug *)
  | Special_input  (** even the NT-Path needs an uncommon input to reach it *)

type t = {
  id : string;
  version : int;
  kind : kind;
  descr : string;
  detect_tags : string list;
  needs_fixing : bool;
      (** detected only when consistency fixing is on (e.g. the man bug) *)
  expected_miss : miss_category option;
      (** [None]: PathExpander is expected to detect it *)
}

val miss_category_name : miss_category -> string

val make :
  id:string ->
  version:int ->
  kind:kind ->
  descr:string ->
  detect_tags:string list ->
  ?needs_fixing:bool ->
  ?expected_miss:miss_category ->
  unit ->
  t

val detectable_by : t -> Codegen.detector -> bool
