(* The deterministic flight recorder: a fixed-capacity ring buffer of typed
   NT-Path lifecycle events, timestamped in *simulated cycles* — never wall
   clock — so two runs of the same sweep produce byte-identical traces,
   serial or parallel.

   One recorder belongs to one run (one [Machine.t]) and is mutated from a
   single domain. The hot-path contract: with tracing disabled every emit
   site costs exactly one load-and-branch on [enabled] (the [disabled]
   singleton is shared and never written); with tracing enabled an emit is
   six array stores into preallocated flat arrays — no allocation either
   way. When the ring fills, the oldest events are overwritten and counted
   as dropped.

   The sim-time clock is split into [base + local]: [base] is the primary
   context's cycle count at the moment an NT-Path was spawned (0 while the
   primary context itself runs), [local] the emitting context's own cycle
   count. Emitters set [local] just before emitting; the engine brackets
   each NT-Path with [set_base]. *)

type cause = Max_length | Crash | Unsafe_event | Program_end | Cache_overflow

let cause_name = function
  | Max_length -> "max-length"
  | Crash -> "crash"
  | Unsafe_event -> "unsafe-event"
  | Program_end -> "program-end"
  | Cache_overflow -> "cache-overflow"

let cause_code = function
  | Max_length -> 0
  | Crash -> 1
  | Unsafe_event -> 2
  | Program_end -> 3
  | Cache_overflow -> 4

let cause_of_code = function
  | 0 -> Max_length
  | 1 -> Crash
  | 2 -> Unsafe_event
  | 3 -> Program_end
  | 4 -> Cache_overflow
  | n -> invalid_arg (Printf.sprintf "Recorder.cause_of_code %d" n)

type event =
  | Spawn of { at : int; path_id : int; br_pc : int; edge : bool; entry_pc : int }
  | Terminate of {
      at : int;
      path_id : int;
      cause : cause;
      len : int;  (* instructions the path retired *)
      dirty_lines : int;  (* L1 lines its squash invalidated *)
    }
  | Commit of { at : int; owner : int; lines : int }
  | Squash of { at : int; owner : int; lines : int }
  | Bug_detected of {
      at : int;
      site : int;
      origin : int;  (* 0 = taken path, else NT-Path id *)
      spawn_site : int;  (* spawning branch pc, -1 on the taken path *)
      edge : int;  (* forced direction 0/1, -1 on the taken path *)
      pc : int;
    }
  | Counter_reset of { at : int; insns : int }

(* Event kinds, by slot byte. *)
let k_spawn = 0
let k_terminate = 1
let k_commit = 2
let k_squash = 3
let k_bug = 4
let k_counter_reset = 5

type t = {
  enabled : bool;
  capacity : int;
  kinds : Bytes.t;
  ts : int array;
  f0 : int array;
  f1 : int array;
  f2 : int array;
  f3 : int array;
  f4 : int array;
  mutable total : int;  (* events ever emitted; write slot = total mod capacity *)
  mutable base : int;
  mutable local : int;
}

let default_capacity = 1 lsl 16

let create ?(capacity = default_capacity) () =
  let capacity = max 1 capacity in
  {
    enabled = true;
    capacity;
    kinds = Bytes.make capacity '\000';
    ts = Array.make capacity 0;
    f0 = Array.make capacity 0;
    f1 = Array.make capacity 0;
    f2 = Array.make capacity 0;
    f3 = Array.make capacity 0;
    f4 = Array.make capacity 0;
    total = 0;
    base = 0;
    local = 0;
  }

(* The shared no-op recorder: [enabled = false] and never mutated, so it is
   safe to hand the same instance to every machine in every domain. *)
let disabled =
  {
    enabled = false;
    capacity = 1;
    kinds = Bytes.make 1 '\000';
    ts = [| 0 |];
    f0 = [| 0 |];
    f1 = [| 0 |];
    f2 = [| 0 |];
    f3 = [| 0 |];
    f4 = [| 0 |];
    total = 0;
    base = 0;
    local = 0;
  }

let enabled t = t.enabled

let set_base t c = if t.enabled then t.base <- c
let set_local t c = if t.enabled then t.local <- c

let push t kind a b c d e =
  let slot = t.total mod t.capacity in
  Bytes.unsafe_set t.kinds slot (Char.unsafe_chr kind);
  t.ts.(slot) <- t.base + t.local;
  t.f0.(slot) <- a;
  t.f1.(slot) <- b;
  t.f2.(slot) <- c;
  t.f3.(slot) <- d;
  t.f4.(slot) <- e;
  t.total <- t.total + 1

let emit_spawn t ~path_id ~br_pc ~edge ~entry_pc =
  if t.enabled then
    push t k_spawn path_id br_pc (if edge then 1 else 0) entry_pc 0

let emit_terminate t ~path_id ~cause ~len ~dirty_lines =
  if t.enabled then
    push t k_terminate path_id (cause_code cause) len dirty_lines 0

let emit_commit t ~owner ~lines =
  if t.enabled then push t k_commit owner lines 0 0 0

let emit_squash t ~owner ~lines =
  if t.enabled then push t k_squash owner lines 0 0 0

let emit_bug t ~site ~origin ~spawn_site ~edge ~pc =
  if t.enabled then push t k_bug site origin spawn_site edge pc

let emit_counter_reset t ~insns =
  if t.enabled then push t k_counter_reset insns 0 0 0 0

let length t = min t.total t.capacity
let total t = t.total
let dropped t = max 0 (t.total - t.capacity)

let event_at t slot =
  let at = t.ts.(slot) in
  let a = t.f0.(slot)
  and b = t.f1.(slot)
  and c = t.f2.(slot)
  and d = t.f3.(slot)
  and e = t.f4.(slot) in
  match Char.code (Bytes.get t.kinds slot) with
  | 0 -> Spawn { at; path_id = a; br_pc = b; edge = c = 1; entry_pc = d }
  | 1 ->
    Terminate
      { at; path_id = a; cause = cause_of_code b; len = c; dirty_lines = d }
  | 2 -> Commit { at; owner = a; lines = b }
  | 3 -> Squash { at; owner = a; lines = b }
  | 4 -> Bug_detected { at; site = a; origin = b; spawn_site = c; edge = d; pc = e }
  | 5 -> Counter_reset { at; insns = a }
  | k -> invalid_arg (Printf.sprintf "Recorder.event_at: kind %d" k)

(* Retained events, oldest first (when the ring wrapped, the oldest
   surviving event is the one just past the write cursor). *)
let events t =
  let n = length t in
  let first = if t.total <= t.capacity then 0 else t.total mod t.capacity in
  List.init n (fun i -> event_at t ((first + i) mod t.capacity))

(* ---- Immutable per-run snapshot ----------------------------------------- *)

(* A submitted run's trace: the retained events plus enough metadata to name
   and validate the file. Snapshots, not live recorders, are what sweep
   capture accumulates — the flat arrays go back to the GC with the
   machine. *)
type dump = { label : string; events : event list; total : int; dropped : int }

let dump ?(label = "") t =
  { label; events = events t; total = t.total; dropped = dropped t }

(* ---- JSONL exporter ----------------------------------------------------- *)

let jsonl_schema_version = 1

let event_json ev =
  let open Jsonu in
  match ev with
  | Spawn { at; path_id; br_pc; edge; entry_pc } ->
    jobj
      [
        ("type", jstr "spawn");
        ("at", string_of_int at);
        ("path", string_of_int path_id);
        ("br_pc", string_of_int br_pc);
        ("edge", string_of_int (if edge then 1 else 0));
        ("entry", string_of_int entry_pc);
      ]
  | Terminate { at; path_id; cause; len; dirty_lines } ->
    jobj
      [
        ("type", jstr "terminate");
        ("at", string_of_int at);
        ("path", string_of_int path_id);
        ("cause", jstr (cause_name cause));
        ("len", string_of_int len);
        ("dirty_lines", string_of_int dirty_lines);
      ]
  | Commit { at; owner; lines } ->
    jobj
      [
        ("type", jstr "commit");
        ("at", string_of_int at);
        ("owner", string_of_int owner);
        ("lines", string_of_int lines);
      ]
  | Squash { at; owner; lines } ->
    jobj
      [
        ("type", jstr "squash");
        ("at", string_of_int at);
        ("owner", string_of_int owner);
        ("lines", string_of_int lines);
      ]
  | Bug_detected { at; site; origin; spawn_site; edge; pc } ->
    jobj
      [
        ("type", jstr "bug");
        ("at", string_of_int at);
        ("site", string_of_int site);
        ("origin", string_of_int origin);
        ("spawn_site", string_of_int spawn_site);
        ("edge", string_of_int edge);
        ("pc", string_of_int pc);
      ]
  | Counter_reset { at; insns } ->
    jobj
      [
        ("type", jstr "counter_reset");
        ("at", string_of_int at);
        ("insns", string_of_int insns);
      ]

(* One meta line (schema version, run label, totals) followed by one line
   per retained event, oldest first. Every line is a complete JSON object. *)
let jsonl_of_dump d =
  let buf = Buffer.create (256 + (64 * List.length d.events)) in
  Buffer.add_string buf
    (Jsonu.jobj
       [
         ("type", Jsonu.jstr "meta");
         ("schema", string_of_int jsonl_schema_version);
         ("label", Jsonu.jstr d.label);
         ("clock", Jsonu.jstr "sim-cycles");
         ("events", string_of_int (List.length d.events));
         ("total", string_of_int d.total);
         ("dropped", string_of_int d.dropped);
       ]);
  Buffer.add_char buf '\n';
  List.iter
    (fun ev ->
      Buffer.add_string buf (event_json ev);
      Buffer.add_char buf '\n')
    d.events;
  Buffer.contents buf

(* ---- Chrome trace-event exporter (Perfetto / chrome://tracing) ---------- *)

(* Spawn/Terminate pairs become "X" (complete) slices on tid = path id; the
   rest become instants. Timestamps are sim cycles written as microseconds,
   so one cycle renders as one us. *)
let chrome_of_dump d =
  let open Jsonu in
  let args fields = jobj fields in
  let entry ?(extra = []) ~name ~ph ~ts ~tid fields =
    jobj
      ([
         ("name", jstr name);
         ("ph", jstr ph);
         ("ts", string_of_int ts);
         ("pid", "0");
         ("tid", string_of_int tid);
       ]
      @ extra
      @ [ ("args", args fields) ])
  in
  (* Pair each Spawn with the next Terminate of the same path id. *)
  let open_spawns = Hashtbl.create 32 in
  let items = ref [] in
  let push s = items := s :: !items in
  List.iter
    (fun ev ->
      match ev with
      | Spawn { at; path_id; br_pc; edge; entry_pc } ->
        Hashtbl.replace open_spawns path_id (at, br_pc, edge, entry_pc)
      | Terminate { at; path_id; cause; len; dirty_lines } ->
        let fields =
          [
            ("cause", jstr (cause_name cause));
            ("len", string_of_int len);
            ("dirty_lines", string_of_int dirty_lines);
          ]
        in
        (match Hashtbl.find_opt open_spawns path_id with
         | Some (t0, br_pc, edge, entry_pc) ->
           Hashtbl.remove open_spawns path_id;
           push
             (entry
                ~name:(Printf.sprintf "nt-path@%d" br_pc)
                ~ph:"X" ~ts:t0 ~tid:path_id
                ~extra:[ ("dur", string_of_int (max 0 (at - t0))) ]
                (fields
                @ [
                    ("br_pc", string_of_int br_pc);
                    ("edge", string_of_int (if edge then 1 else 0));
                    ("entry", string_of_int entry_pc);
                  ]))
         | None ->
           (* The matching spawn fell off the ring: render a lone instant. *)
           push (entry ~name:"terminate" ~ph:"i" ~ts:at ~tid:path_id fields))
      | Commit { at; owner; lines } ->
        push
          (entry ~name:"commit" ~ph:"i" ~ts:at ~tid:owner
             [ ("lines", string_of_int lines) ])
      | Squash { at; owner; lines } ->
        push
          (entry ~name:"squash" ~ph:"i" ~ts:at ~tid:owner
             [ ("lines", string_of_int lines) ])
      | Bug_detected { at; site; origin; spawn_site; edge; pc } ->
        push
          (entry
             ~name:(Printf.sprintf "bug site %d" site)
             ~ph:"i" ~ts:at ~tid:origin
             ~extra:[ ("s", jstr "p") ]
             [
               ("origin", string_of_int origin);
               ("spawn_site", string_of_int spawn_site);
               ("edge", string_of_int edge);
               ("pc", string_of_int pc);
             ])
      | Counter_reset { at; insns } ->
        push
          (entry ~name:"counter-reset" ~ph:"i" ~ts:at ~tid:0
             [ ("insns", string_of_int insns) ]))
    d.events;
  (* Unterminated spawns (run ended mid-path never happens, but a wrapped
     ring can orphan them): render as instants so nothing is silently lost. *)
  Hashtbl.iter
    (fun path_id (t0, br_pc, edge, entry_pc) ->
      push
        (entry ~name:"spawn" ~ph:"i" ~ts:t0 ~tid:path_id
           [
             ("br_pc", string_of_int br_pc);
             ("edge", string_of_int (if edge then 1 else 0));
             ("entry", string_of_int entry_pc);
           ]))
    open_spawns;
  jobj
    [
      ("traceEvents", jarr (List.rev !items));
      ("displayTimeUnit", jstr "ms");
      ( "otherData",
        jobj
          [
            ("clock", jstr "sim-cycles");
            ("label", jstr d.label);
            ("dropped", string_of_int d.dropped);
          ] );
    ]

(* ---- Process-global capture (sweep tracing) ----------------------------- *)

(* Mirrors the Telemetry collector: [set_tracing] arms machine creation
   ([obtain] hands out fresh enabled recorders instead of the disabled
   singleton) and engines [submit] finished runs as immutable dumps. *)
let tracing_mutex = Mutex.create ()
let tracing_capacity : int option ref = ref None
let trace_collector : (dump -> unit) option ref = ref None

let set_tracing cap =
  Mutex.lock tracing_mutex;
  tracing_capacity := cap;
  Mutex.unlock tracing_mutex

let tracing () =
  Mutex.lock tracing_mutex;
  let r = !tracing_capacity <> None in
  Mutex.unlock tracing_mutex;
  r

let obtain () =
  Mutex.lock tracing_mutex;
  let cap = !tracing_capacity in
  Mutex.unlock tracing_mutex;
  match cap with None -> disabled | Some capacity -> create ~capacity ()

let submit ~label t =
  if t.enabled then begin
    Mutex.lock tracing_mutex;
    let c = !trace_collector in
    Mutex.unlock tracing_mutex;
    match c with None -> () | Some f -> f (dump ~label t)
  end

(* Run [f] with tracing armed and a dump-accumulating collector installed;
   returns [f ()]'s value and every submitted run, in submission order. *)
let capture_runs ?(capacity = default_capacity) f =
  let acc = ref [] in
  let acc_mutex = Mutex.create () in
  Mutex.lock tracing_mutex;
  tracing_capacity := Some capacity;
  trace_collector :=
    Some
      (fun d ->
        Mutex.lock acc_mutex;
        acc := d :: !acc;
        Mutex.unlock acc_mutex);
  Mutex.unlock tracing_mutex;
  let finish () =
    Mutex.lock tracing_mutex;
    tracing_capacity := None;
    trace_collector := None;
    Mutex.unlock tracing_mutex
  in
  match f () with
  | v ->
    finish ();
    (v, List.rev !acc)
  | exception e ->
    finish ();
    raise e

(* ---- Directory export --------------------------------------------------- *)

let save_dir ~dir dumps =
  Artifacts.save_dir ~dir ~prefix:"trace" ~ext:"jsonl"
    (List.map (fun d -> (d.label, jsonl_of_dump d)) dumps)
