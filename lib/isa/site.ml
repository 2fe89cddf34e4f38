type kind =
  | Bounds_check
  | Null_check
  | Watchpoint
  | Assertion

type t = {
  id : int;
  line : int;
  kind : kind;
  descr : string;
}

let kind_name = function
  | Bounds_check -> "bounds"
  | Null_check -> "null"
  | Watchpoint -> "watch"
  | Assertion -> "assert"

let to_string site =
  Printf.sprintf "site %d (%s, line %d): %s" site.id (kind_name site.kind)
    site.line site.descr
