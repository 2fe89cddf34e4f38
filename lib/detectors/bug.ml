type kind = Memory | Semantic

(* Why a bug can stay undetected even with PathExpander (Section 7.1). *)
type miss_category =
  | Value_coverage
  | Hot_entry_edge
  | Inconsistency
  | Special_input

type t = {
  id : string;
  version : int;
  kind : kind;
  descr : string;
  detect_tags : string list;
  needs_fixing : bool;
  expected_miss : miss_category option;
}

let miss_category_name = function
  | Value_coverage -> "value-coverage"
  | Hot_entry_edge -> "hot-entry-edge"
  | Inconsistency -> "inconsistency"
  | Special_input -> "special-input"

let make ~id ~version ~kind ~descr ~detect_tags ?(needs_fixing = false)
    ?expected_miss () =
  { id; version; kind; descr; detect_tags; needs_fixing; expected_miss }

let detectable_by bug detector =
  match (bug.kind, detector) with
  | Memory, (Codegen.Ccured | Codegen.Iwatcher) -> true
  | Semantic, Codegen.Assertions -> true
  | Memory, (Codegen.Assertions | Codegen.No_detector) -> false
  | Semantic, (Codegen.Ccured | Codegen.Iwatcher | Codegen.No_detector) -> false
