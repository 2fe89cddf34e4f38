(* The selective fast tier: one stripped interpreter for the taken path and
   for NT-Paths.

   This is the engine's answer to detection bloat (coverage-preserving
   selective instrumentation, as in HeXcite): a path runs here with no
   detector hooks, no watchpoint range walks, no store-hook dispatch and no
   recorder branches — just registers, memory, cache timing and coverage
   bits. The moment an instruction needs any of the heavy machinery (a
   syscall, a watch/unwatch, an access to a word the watchpoint unit's
   filter flags, a detector check that would file a report, a fault, or a
   branch whose cold-edge counter makes it a spawn candidate) the loop
   stops *before* that instruction and the caller executes it on the
   fully instrumented tier ([Cpu.step]). Deoptimization, not
   re-execution: no instruction ever runs twice, so every observable —
   architectural state, stats, cache/BTB contents, coverage, reports,
   recorder stream, program output — is bit-for-bit what the instrumented
   tier alone would produce.

   As in the paper, an NT-Path runs on the same pipeline as the taken path;
   what differs is data fixed when the handle is built, never code:
   - memory: [sandbox = None] reads [words] directly and writes with
     [Memory.write_valid]; [Some sb] goes through the path's overlay
     sandbox, whose write can refuse (the path's L1 line budget
     overflowed) — discoverable only by doing the write, so that store
     retires in place (stats and latency charged, pc left on it) and the
     segment stops with [Overflow], exactly the state the instrumented
     tier's raise leaves behind;
   - cache ownership: committed and non-speculative on the taken path, the
     path's version tag and speculative inside an NT-Path;
   - coverage: the taken or the NT-Path line bitmap, and the matching edge
     recorder;
   - branches: [spawning] and [threshold] (see [make] in the interface).

   Correctness of the stop-before discipline rests on every case below
   either (a) committing *exactly* the state transitions the instrumented
   tier commits for that instruction, or (b) committing *nothing* and
   stopping. The pre-checks make (b) possible without exceptions: memory
   operands are validated with [Memory.is_valid] (the exact complement of
   [Memory.check]'s raise condition) and divisors checked against zero
   before any side effect.

   Spawn-candidate detection probes the BTB side-effect-free
   ([Btb.probe_exercise]). Within a fast segment a branch's forced-edge
   counter is monotone non-decreasing (the engine only increments non-taken
   edge counters when it spawns, and spawns only happen on the instrumented
   tier), so probing possibly-stale counters is conservative: a branch may
   deoptimize spuriously (the instrumented tier then decides for real), but
   a spawn can never be missed. BTB misses always deoptimize for the same
   reason — the insertion and its accounting belong to the instrumented
   tier's [Btb.counts]/[Btb.exercise] pair; for exercised non-candidates
   [Btb.probe_exercise] commits that pair's exact observable effect in the
   same single associative search that tested the predicate.

   Performance structure: the handle is a flat record and the interpreter
   is a *top-level* tail-recursive function over it and plain integer state
   (pc and the five stat deltas), so the per-instruction bookkeeping lives
   in registers and the context's stats are updated once, at segment exit.
   Without flambda this matters twice over: a segment call allocates
   nothing (per-call parameters are record stores, exit state flushes
   straight into the context, every [stop] constructor is constant), and
   every call in the per-instruction path is a known direct call. Every
   per-path choice is a field read at the instruction that needs it (the
   statement-coverage sink is a bitmap chosen once per handle), never a test
   of the path kind on every instruction. *)

type stop =
  | Budget
  | Special
  | Special_branch_taken
  | Special_branch_nontaken
  | Overflow

type t = {
  machine : Machine.t;
  ctx : Context.t;
  coverage : Coverage.t;
  dcode : Decode.t array;
  mem : Memory.t;
  words : int array;
  btb : Btb.t;
  regs : int array;
  code_len : int;
  (* the path's differences, fixed at [make] *)
  sandbox : Context.sandbox option;
  speculative : bool;
  line_of : int array;  (* one slot per pc, so a pc below [code_len] indexes it *)
  lines : Bytes.t;  (* the taken or the NT-Path statement bitmap *)
  spawning : bool;
  threshold : int;
  (* An NT arena's L1 is retargeted per spawn (CMP spawns land on idle
     cores' L1s) and its path id is fresh per spawn, so both are re-read
     from the context/sandbox at every segment ([run]). *)
  mutable l1 : Cache.t;
  mutable owner : int;
  (* The watchpoint unit's per-word filter, re-read at every segment: only
     watch, unwatch and an NT-Path squash's undo change it, and none of
     them runs inside a segment. *)
  mutable watch_filter : Bytes.t;
  (* per-segment parameter and results *)
  mutable budget : int;
  mutable retired : int;
  mutable memo_hits : int;
      (* batched latency accounting (DESIGN.md §13): accesses the cache's
         MRU memo answers are L1 hits with zero stall cycles and no cache
         state change, counted here and flushed to the hit counter once per
         segment, mirroring how the stat deltas flush. Inside an NT-Path the
         owner is the path's id, so a memoized *write* only short-circuits
         when the line already carries this path's tag. *)
}

let[@inline always] latency t ~write addr =
  if Cache.memo_probe t.l1 addr ~owner:t.owner ~write then begin
    t.memo_hits <- t.memo_hits + 1;
    0
  end
  else
    Machine.access_latency t.machine t.l1 ~owner:t.owner ~write
      ~speculative:t.speculative addr

(* The word at [addr] may be watched: the access must run on the
   instrumented tier, whose [Cpu.check_watch] makes the exact range test
   and files the report. [addr] has passed [Memory.is_valid], so it is not
   negative. *)
let[@inline always] watched t addr =
  addr < Bytes.length t.watch_filter
  && Bytes.unsafe_get t.watch_filter addr <> '\000'

(* [addr] has passed [Memory.is_valid]. *)
let[@inline always] read t addr =
  match t.sandbox with
  | None -> Array.unsafe_get t.words addr
  | Some sb -> Context.sandbox_read sb t.mem addr

(* False: the NT-Path's L1 line budget overflowed. *)
let[@inline always] write t addr v =
  match t.sandbox with
  | None ->
    Memory.write_valid t.mem addr v;
    true
  | Some sb -> Context.sandbox_write sb t.mem addr v

let[@inline always] cover t pc =
  Bytes.unsafe_set t.lines (Array.unsafe_get t.line_of pc) '\001'

(* Segment exit: final pc into the context, the stat deltas accumulated in
   the loop's registers onto its counters, the retired count into the
   handle — no exit record. *)
let[@inline always] finish t pc n cyc ld st br =
  t.ctx.Context.pc <- pc;
  let stats = t.ctx.Context.stats in
  stats.Context.insns <- stats.Context.insns + n;
  stats.Context.cycles <- stats.Context.cycles + cyc;
  stats.Context.loads <- stats.Context.loads + ld;
  stats.Context.stores <- stats.Context.stores + st;
  stats.Context.branches <- stats.Context.branches + br;
  t.retired <- n

(* [pc]..[br] are the live per-instruction state; every executed
   instruction mirrors the instrumented tier's statement-coverage record
   (the caller's loop top) and the insns/cycles bump of [Cpu.step]. *)
let rec go t pc n cyc ld st br =
  if n >= t.budget then begin
    finish t pc n cyc ld st br;
    Budget
  end
  else if pc < 0 || pc >= t.code_len then special t pc n cyc ld st br
  else begin
    let regs = t.regs in
    match Array.unsafe_get t.dcode pc with
    | Decode.D_alu (op, rd, rs, rt) ->
      if rd <> 0 then
        Array.unsafe_set regs rd
          (Decode.eval_alu op (Array.unsafe_get regs rs)
             (Array.unsafe_get regs rt));
      cover t pc;
      go t (pc + 1) (n + 1) (cyc + 1) ld st br
    | Decode.D_alui (op, rd, rs, imm) ->
      if rd <> 0 then
        Array.unsafe_set regs rd
          (Decode.eval_alu op (Array.unsafe_get regs rs) imm);
      cover t pc;
      go t (pc + 1) (n + 1) (cyc + 1) ld st br
    | Decode.D_div (rd, rs, rt) ->
      let b = Array.unsafe_get regs rt in
      (* zero divisor: the instrumented tier faults (Div_by_zero) *)
      if b = 0 then special t pc n cyc ld st br
      else begin
        if rd <> 0 then
          Array.unsafe_set regs rd (Array.unsafe_get regs rs / b);
        cover t pc;
        go t (pc + 1) (n + 1) (cyc + 1) ld st br
      end
    | Decode.D_mod (rd, rs, rt) ->
      let b = Array.unsafe_get regs rt in
      if b = 0 then special t pc n cyc ld st br
      else begin
        if rd <> 0 then
          Array.unsafe_set regs rd (Array.unsafe_get regs rs mod b);
        cover t pc;
        go t (pc + 1) (n + 1) (cyc + 1) ld st br
      end
    | Decode.D_divi (rd, rs, imm) ->
      if imm = 0 then special t pc n cyc ld st br
      else begin
        if rd <> 0 then
          Array.unsafe_set regs rd (Array.unsafe_get regs rs / imm);
        cover t pc;
        go t (pc + 1) (n + 1) (cyc + 1) ld st br
      end
    | Decode.D_modi (rd, rs, imm) ->
      if imm = 0 then special t pc n cyc ld st br
      else begin
        if rd <> 0 then
          Array.unsafe_set regs rd (Array.unsafe_get regs rs mod imm);
        cover t pc;
        go t (pc + 1) (n + 1) (cyc + 1) ld st br
      end
    | Decode.D_cmp (c, rd, rs, rt) ->
      if rd <> 0 then
        Array.unsafe_set regs rd
          (if
             Insn.eval_cmp c (Array.unsafe_get regs rs)
               (Array.unsafe_get regs rt)
           then 1
           else 0);
      cover t pc;
      go t (pc + 1) (n + 1) (cyc + 1) ld st br
    | Decode.D_cmpi (c, rd, rs, imm) ->
      if rd <> 0 then
        Array.unsafe_set regs rd
          (if Insn.eval_cmp c (Array.unsafe_get regs rs) imm then 1 else 0);
      cover t pc;
      go t (pc + 1) (n + 1) (cyc + 1) ld st br
    | Decode.D_li (rd, imm) ->
      if rd <> 0 then Array.unsafe_set regs rd imm;
      cover t pc;
      go t (pc + 1) (n + 1) (cyc + 1) ld st br
    | Decode.D_mov (rd, rs) ->
      if rd <> 0 then Array.unsafe_set regs rd (Array.unsafe_get regs rs);
      cover t pc;
      go t (pc + 1) (n + 1) (cyc + 1) ld st br
    | Decode.D_load (rd, base, off) ->
      let addr = Array.unsafe_get regs base + off in
      if not (Memory.is_valid t.mem addr) || watched t addr then
        special t pc n cyc ld st br
      else begin
        let lat = latency t ~write:false addr in
        let v = read t addr in
        if rd <> 0 then Array.unsafe_set regs rd v;
        cover t pc;
        go t (pc + 1) (n + 1) (cyc + 1 + lat) (ld + 1) st br
      end
    | Decode.D_store (rs, base, off) ->
      let addr = Array.unsafe_get regs base + off in
      if not (Memory.is_valid t.mem addr) || watched t addr then
        special t pc n cyc ld st br
      else begin
        let lat = latency t ~write:true addr in
        cover t pc;
        if write t addr (Array.unsafe_get regs rs) then
          go t (pc + 1) (n + 1) (cyc + 1 + lat) ld (st + 1) br
        else overflow t pc (n + 1) (cyc + 1 + lat) ld (st + 1) br
      end
    | Decode.D_br (c, rs, rt, target) ->
      let taken =
        Insn.eval_cmp c (Array.unsafe_get regs rs) (Array.unsafe_get regs rt)
      in
      (* One associative search both tests the spawn predicate and — for
         rejected branches — commits the counts+exercise effect. A BTB
         miss is always a candidate: the insertion and its accounting
         belong to the instrumented tier. *)
      if t.spawning && Btb.probe_exercise t.btb pc ~taken ~threshold:t.threshold
      then begin
        finish t pc n cyc ld st br;
        if taken then Special_branch_taken else Special_branch_nontaken
      end
      else begin
        (match t.sandbox with
         | None -> Coverage.record_taken t.coverage pc taken
         | Some _ -> Coverage.record_nt t.coverage pc taken);
        cover t pc;
        go t
          (if taken then target else pc + 1)
          (n + 1) (cyc + 1) ld st (br + 1)
      end
    | Decode.D_jmp target ->
      cover t pc;
      go t target (n + 1) (cyc + 1) ld st br
    | Decode.D_call target ->
      let sp = Array.unsafe_get regs Reg.sp - 1 in
      if not (Memory.is_valid t.mem sp) || watched t sp then
        special t pc n cyc ld st br
      else begin
        Array.unsafe_set regs Reg.sp sp;
        let lat = latency t ~write:true sp in
        cover t pc;
        if write t sp (pc + 1) then
          go t target (n + 1) (cyc + 1 + lat) ld (st + 1) br
        else overflow t pc (n + 1) (cyc + 1 + lat) ld (st + 1) br
      end
    | Decode.D_ret ->
      let sp = Array.unsafe_get regs Reg.sp in
      if not (Memory.is_valid t.mem sp) || watched t sp then
        special t pc n cyc ld st br
      else begin
        let lat = latency t ~write:false sp in
        let ra = read t sp in
        Array.unsafe_set regs Reg.sp (sp + 1);
        cover t pc;
        go t ra (n + 1) (cyc + 1 + lat) (ld + 1) st br
      end
    | Decode.D_push rs ->
      let sp = Array.unsafe_get regs Reg.sp - 1 in
      if not (Memory.is_valid t.mem sp) || watched t sp then
        special t pc n cyc ld st br
      else begin
        Array.unsafe_set regs Reg.sp sp;
        let lat = latency t ~write:true sp in
        cover t pc;
        if write t sp (Array.unsafe_get regs rs) then
          go t (pc + 1) (n + 1) (cyc + 1 + lat) ld (st + 1) br
        else overflow t pc (n + 1) (cyc + 1 + lat) ld (st + 1) br
      end
    | Decode.D_pop rd ->
      let sp = Array.unsafe_get regs Reg.sp in
      if not (Memory.is_valid t.mem sp) || watched t sp then
        special t pc n cyc ld st br
      else begin
        let lat = latency t ~write:false sp in
        let v = read t sp in
        Array.unsafe_set regs Reg.sp (sp + 1);
        if rd <> 0 then Array.unsafe_set regs rd v;
        cover t pc;
        go t (pc + 1) (n + 1) (cyc + 1 + lat) (ld + 1) st br
      end
    | Decode.D_checkz (rs, _site) ->
      (* Passing check: no report, plain fallthrough. A zero value files a
         report (detector machinery) — instrumented tier's job. *)
      if Array.unsafe_get regs rs = 0 then special t pc n cyc ld st br
      else begin
        cover t pc;
        go t (pc + 1) (n + 1) (cyc + 1) ld st br
      end
    | Decode.D_pred _ ->
      (* The predicate is false outside NT-Path consistency-fix blocks,
         making this a fallthrough; a live predicate means a fix block is
         executing and the instrumented tier must run it. *)
      if t.ctx.Context.pred then special t pc n cyc ld st br
      else begin
        cover t pc;
        go t (pc + 1) (n + 1) (cyc + 1) ld st br
      end
    | Decode.D_clearpred ->
      t.ctx.Context.pred <- false;
      cover t pc;
      go t (pc + 1) (n + 1) (cyc + 1) ld st br
    | Decode.D_nop ->
      cover t pc;
      go t (pc + 1) (n + 1) (cyc + 1) ld st br
    | Decode.D_syscall _ | Decode.D_watch _ | Decode.D_unwatch _
    | Decode.D_halt ->
      special t pc n cyc ld st br
  end

and special t pc n cyc ld st br =
  finish t pc n cyc ld st br;
  Special

and overflow t pc n cyc ld st br =
  finish t pc n cyc ld st br;
  Overflow

let make machine ctx coverage ~sandbox ~spawning ~threshold =
  let dcode = machine.Machine.program.Program.dcode in
  let line_of = Coverage.line_of coverage in
  if Array.length line_of <> Array.length dcode then
    invalid_arg "Fast_loop.make: coverage is not for this machine's program";
  {
    machine;
    ctx;
    coverage;
    dcode;
    mem = machine.Machine.mem;
    words = machine.Machine.mem.Memory.words;
    btb = machine.Machine.btb;
    regs = ctx.Context.regs;
    code_len = Array.length dcode;
    sandbox;
    speculative = Option.is_some sandbox;
    line_of;
    lines = Coverage.line_bitmap coverage ~nt:(Option.is_some sandbox);
    spawning;
    threshold;
    l1 = ctx.Context.l1;
    owner = Cache.committed_owner;
    watch_filter = Bytes.empty;
    budget = 0;
    retired = 0;
    memo_hits = 0;
  }

let run t ~budget =
  t.l1 <- t.ctx.Context.l1;
  t.owner <-
    (match t.sandbox with
     | None -> Cache.committed_owner
     | Some sb -> Context.sandbox_path_id sb);
  t.watch_filter <- Watchpoints.filter t.machine.Machine.watch;
  t.budget <- budget;
  t.memo_hits <- 0;
  let stop = go t t.ctx.Context.pc 0 0 0 0 0 in
  if t.memo_hits > 0 then Cache.add_hits t.l1 t.memo_hits;
  stop

let retired t = t.retired
