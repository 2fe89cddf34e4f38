(** Report sites.

    Every place where a dynamic bug detector may fire — a CCured bounds or
    null check, an iWatcher watchpoint registration, or an assertion — is
    assigned a report site at compile time. A run produces *reports*, each
    naming the site that fired; a report whose site is at the source line of
    a planted bug counts as detecting that bug, any other report is a false
    positive. *)

type kind =
  | Bounds_check
  | Null_check
  | Watchpoint
  | Assertion

type t = {
  id : int;  (** dense index into the program's site table *)
  line : int;  (** MiniC source line of the checked construct *)
  kind : kind;
  descr : string;
}

val kind_name : kind -> string
val to_string : t -> string
