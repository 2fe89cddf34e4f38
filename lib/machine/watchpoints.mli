(** iWatcher-style hardware watchpoint unit.

    Detectors register address ranges (red zones, freed blocks); the CPU
    consults the unit on every data access and files a report for each range
    that contains the address. Changes made during an NT-Path are journaled
    so the sandbox can undo them on squash.

    A per-word filter (the hardware's watch flags) counts the ranges
    covering each word, so an access to an unwatched word is decided by one
    byte load. It over-approximates: a word covered by 255 or more ranges
    at once stays flagged for good, but a watched word is always flagged. *)

type t

(** Which accesses trigger a range (real iWatcher distinguishes read and
    write monitoring). *)
type mode = Watch_read | Watch_write | Watch_both

(** Opaque undo token for one mutation. *)
type journal_entry

(** A unit for an address space of [words] words; the filter never flags
    a word outside [\[0, words)] (no access there can succeed). *)
val create : words:int -> t

(** Watch [\[lo, hi)], firing report site [site] on access; [mode] defaults
    to {!Watch_both}. *)
val watch : ?mode:mode -> t -> lo:int -> hi:int -> site:int -> journal_entry

(** Remove every range fully inside [\[lo, hi)]. *)
val unwatch : t -> lo:int -> hi:int -> journal_entry

(** Sites of all ranges containing [addr] that match this access kind
    (increments the trigger count). *)
val hit_sites : t -> is_write:bool -> int -> int list

val is_watched : t -> int -> bool

(** [flagged t addr]: the filter flags [addr]. True whenever
    [is_watched t addr] and [addr] is inside the address space; false
    outside the address space. *)
val flagged : t -> int -> bool

(** The filter itself: byte [a] is non-zero iff {!flagged}[ t a], and words
    at or past its length are not flagged. Only {!watch}, {!unwatch} and
    {!undo} change it, and they may replace it with a longer one, so a
    reader that holds it must re-read it after any of them. *)
val filter : t -> Bytes.t

(** Undo one journaled mutation (NT-Path squash). *)
val undo : t -> journal_entry -> unit

val count : t -> int

val triggers : t -> int
