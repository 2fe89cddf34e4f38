(* iWatcher-style hardware watchpoint unit: a set of address ranges, each
   associated with a report site. Every load/store is checked against the
   ranges; a hit triggers the associated monitoring check at small, fixed
   hardware cost.

   The hardware's per-word watch flag is modelled by [filter]: one byte per
   word holding the number of ranges that cover it, so an access to an
   unwatched word costs one byte load before any range is walked. The
   filter is sized lazily, to the highest watched word, and never shrinks.
   A count saturates at [saturated], and a saturated word is never
   decremented again: the filter may then flag a word no range covers, but
   it never misses a watched one. *)

type mode = Watch_read | Watch_write | Watch_both

type range = { lo : int; hi : int; site : int; mode : mode }

type t = {
  mutable ranges : range list;
  mutable triggers : int;
  words : int;  (* address-space size: no word at or past it is flagged *)
  mutable filter : Bytes.t;
}

type journal_entry = Added of range | Removed of range list

let saturated = 255

let create ~words = { ranges = []; triggers = 0; words; filter = Bytes.empty }

(* The part of [r] inside the address space, as a [lo, hi) pair. *)
let[@inline] span unit r = (max 0 r.lo, min unit.words r.hi)

let grow unit hi =
  let len = Bytes.length unit.filter in
  let filter = Bytes.make (min unit.words (max hi (2 * len))) '\000' in
  Bytes.blit unit.filter 0 filter 0 len;
  unit.filter <- filter

let cover unit r =
  let lo, hi = span unit r in
  if lo < hi then begin
    if hi > Bytes.length unit.filter then grow unit hi;
    let f = unit.filter in
    for a = lo to hi - 1 do
      let c = Char.code (Bytes.unsafe_get f a) in
      if c < saturated then Bytes.unsafe_set f a (Char.unsafe_chr (c + 1))
    done
  end

(* [r] was covered, so the filter already reaches its [hi]. *)
let uncover unit r =
  let lo, hi = span unit r in
  let f = unit.filter in
  for a = lo to hi - 1 do
    let c = Char.code (Bytes.unsafe_get f a) in
    if c < saturated then Bytes.unsafe_set f a (Char.unsafe_chr (c - 1))
  done

let watch ?(mode = Watch_both) unit ~lo ~hi ~site =
  if hi < lo then invalid_arg "Watchpoints.watch: empty range";
  let r = { lo; hi; site; mode } in
  unit.ranges <- r :: unit.ranges;
  cover unit r;
  Added r

let unwatch unit ~lo ~hi =
  let removed, kept =
    List.partition (fun r -> r.lo >= lo && r.hi <= hi) unit.ranges
  in
  unit.ranges <- kept;
  List.iter (uncover unit) removed;
  Removed removed

let mode_matches mode ~is_write =
  match mode with
  | Watch_both -> true
  | Watch_read -> not is_write
  | Watch_write -> is_write

let filter unit = unit.filter

let[@inline] flagged unit addr =
  addr >= 0
  && addr < Bytes.length unit.filter
  && Bytes.unsafe_get unit.filter addr <> '\000'

(* Report sites of every range containing [addr] whose mode covers this
   access kind. *)
let hit_sites unit ~is_write addr =
  List.filter_map
    (fun r ->
      if addr >= r.lo && addr < r.hi && mode_matches r.mode ~is_write then begin
        unit.triggers <- unit.triggers + 1;
        Some r.site
      end
      else None)
    unit.ranges

let is_watched unit addr =
  List.exists (fun r -> addr >= r.lo && addr < r.hi) unit.ranges

(* Journal entries are undone newest first, so an [Added] range is back in
   the list by the time its own entry is undone; the membership test keeps
   the filter's counts exact even for an entry undone out of order. *)
let undo unit entry =
  match entry with
  | Added r ->
    if List.memq r unit.ranges then begin
      unit.ranges <- List.filter (fun r' -> r' != r) unit.ranges;
      uncover unit r
    end
  | Removed rs ->
    unit.ranges <- rs @ unit.ranges;
    List.iter (cover unit) rs

let count unit = List.length unit.ranges
let triggers unit = unit.triggers
