(* Branch target buffer extended, as in the paper, with two 4-bit saturating
   exercise counters per entry — one per branch edge. A BTB miss is treated
   as if both counters were zero. *)

type entry = {
  mutable tag : int;
  mutable valid : bool;
  mutable taken_count : int;
  mutable nontaken_count : int;
  mutable lru : int;
}

type t = {
  sets : entry array array;
  counter_max : int;
  mutable clock : int;
  mutable lookups : int;
  mutable misses : int;
}

let counter_bits = 4

let create ~entries ~assoc =
  if entries mod assoc <> 0 then invalid_arg "Btb.create: geometry";
  let nsets = entries / assoc in
  let make_entry () =
    { tag = 0; valid = false; taken_count = 0; nontaken_count = 0; lru = 0 }
  in
  {
    sets = Array.init nsets (fun _ -> Array.init assoc (fun _ -> make_entry ()));
    counter_max = (1 lsl counter_bits) - 1;
    clock = 0;
    lookups = 0;
    misses = 0;
  }

let set_of btb pc = btb.sets.(pc mod Array.length btb.sets)

(* Associative search as a top-level loop over (set, pc): an inner [let rec]
   would allocate a closure per lookup (no flambda), and [probe_exercise]
   runs this once per fast-tier branch. Returns the way index, or -1. *)
let rec search_set set n pc i =
  if i >= n then -1
  else
    let e = Array.unsafe_get set i in
    if e.valid && e.tag = pc then i else search_set set n pc (i + 1)

let find btb pc =
  let set = set_of btb pc in
  let i = search_set set (Array.length set) pc 0 in
  if i >= 0 then Some set.(i) else None

let victim btb pc =
  let set = set_of btb pc in
  let best = ref set.(0) in
  Array.iter
    (fun e ->
      if not e.valid then (if !best.valid then best := e)
      else if !best.valid && e.lru < !best.lru then best := e)
    set;
  !best

(* Exercise counts of the two edges of the branch at [pc]; (0, 0) on miss. *)
let counts btb pc =
  btb.lookups <- btb.lookups + 1;
  match find btb pc with
  | Some e ->
    btb.clock <- btb.clock + 1;
    e.lru <- btb.clock;
    (e.taken_count, e.nontaken_count)
  | None ->
    btb.misses <- btb.misses + 1;
    (0, 0)

let entry_for btb pc =
  match find btb pc with
  | Some e -> e
  | None ->
    let e = victim btb pc in
    e.valid <- true;
    e.tag <- pc;
    e.taken_count <- 0;
    e.nontaken_count <- 0;
    e

(* Side-effect-free counter read for the selective fast tier: no lookup
   accounting, no LRU touch, no allocation on miss. The fast tier uses this
   to decide whether a branch is a spawn candidate *before* committing any
   BTB state change; a candidate (or a miss) deoptimizes to the instrumented
   tier, which then performs the real [counts]/[exercise] sequence. *)
let probe_counts btb pc =
  match find btb pc with
  | Some e -> Some (e.taken_count, e.nontaken_count)
  | None -> None

let exercise btb pc ~taken =
  let e = entry_for btb pc in
  btb.clock <- btb.clock + 1;
  e.lru <- btb.clock;
  if taken then e.taken_count <- min btb.counter_max (e.taken_count + 1)
  else e.nontaken_count <- min btb.counter_max (e.nontaken_count + 1)

(* Fused [counts] + [exercise] with a single associative search, for the
   selective fast tier's non-candidate branches. Must leave the BTB in the
   exact observable state the two-call sequence would: same [lookups] and
   [misses] accounting, same net [clock] advance (+2 on hit: one LRU touch
   from the counts read, one from the exercise; +1 on miss: the counts read
   of a missing entry does not touch the clock), same final LRU stamp and
   counter values. *)
let lookup_exercise btb pc ~taken =
  btb.lookups <- btb.lookups + 1;
  let e =
    match find btb pc with
    | Some e ->
      btb.clock <- btb.clock + 2;
      e
    | None ->
      btb.misses <- btb.misses + 1;
      let e = victim btb pc in
      e.valid <- true;
      e.tag <- pc;
      e.taken_count <- 0;
      e.nontaken_count <- 0;
      btb.clock <- btb.clock + 1;
      e
  in
  e.lru <- btb.clock;
  if taken then e.taken_count <- min btb.counter_max (e.taken_count + 1)
  else e.nontaken_count <- min btb.counter_max (e.nontaken_count + 1)

(* Single-search combination of the fast tier's candidate test and counter
   update: equivalent to [probe_counts] followed — only when the branch is
   not a spawn candidate — by [lookup_exercise]. Returns [true] (candidate:
   BTB miss or forced-edge counter below [threshold]) leaving the BTB
   untouched, so the instrumented tier replays the real sequence; or commits
   [lookup_exercise]'s exact observable effect and returns [false]. *)
let probe_exercise btb pc ~taken ~threshold =
  let set = set_of btb pc in
  let i = search_set set (Array.length set) pc 0 in
  if i < 0 then true
  else begin
    let e = Array.unsafe_get set i in
    let forced = if taken then e.nontaken_count else e.taken_count in
    if forced < threshold then true
    else begin
      btb.lookups <- btb.lookups + 1;
      btb.clock <- btb.clock + 2;
      e.lru <- btb.clock;
      if taken then e.taken_count <- min btb.counter_max (e.taken_count + 1)
      else e.nontaken_count <- min btb.counter_max (e.nontaken_count + 1);
      false
    end
  end

let reset_counters btb =
  Array.iter
    (fun set ->
      Array.iter
        (fun e ->
          e.taken_count <- 0;
          e.nontaken_count <- 0)
        set)
    btb.sets

(* Back to exactly what [create] returns, for a BTB recycled through the
   machine-part pool. *)
let clear btb =
  Array.iter
    (Array.iter (fun e ->
         e.tag <- 0;
         e.valid <- false;
         e.lru <- 0))
    btb.sets;
  reset_counters btb;
  btb.clock <- 0;
  btb.lookups <- 0;
  btb.misses <- 0

let has_geometry btb ~entries ~assoc =
  Array.length btb.sets = entries / assoc && Array.length btb.sets.(0) = assoc

let lookups btb = btb.lookups
let miss_count btb = btb.misses

let entry_count btb =
  Array.length btb.sets * Array.length btb.sets.(0)

let valid_entries btb =
  let count = ref 0 in
  Array.iter
    (fun set -> Array.iter (fun e -> if e.valid then incr count) set)
    btb.sets;
  !count

(* Entries whose exercise counters can no longer discriminate cold edges:
   both counters pinned at the 4-bit maximum. *)
let saturated_entries btb =
  let count = ref 0 in
  Array.iter
    (fun set ->
      Array.iter
        (fun e ->
          if
            e.valid && e.taken_count >= btb.counter_max
            && e.nontaken_count >= btb.counter_max
          then incr count)
        set)
    btb.sets;
  !count

(* BTB pressure for telemetry: occupancy (conflict evictions lose exercise
   history), miss rate, and the saturated-counter fraction. *)
let record_telemetry btb sink ~prefix =
  Telemetry.count sink (prefix ^ ".lookups") btb.lookups;
  Telemetry.count sink (prefix ^ ".misses") btb.misses;
  if btb.lookups > 0 then
    Telemetry.gauge sink (prefix ^ ".miss_rate")
      (float_of_int btb.misses /. float_of_int btb.lookups);
  let entries = entry_count btb in
  Telemetry.gauge sink (prefix ^ ".occupancy")
    (float_of_int (valid_entries btb) /. float_of_int entries);
  Telemetry.gauge sink (prefix ^ ".saturation")
    (float_of_int (saturated_entries btb) /. float_of_int entries)
