(** The selective fast tier: one stripped interpreter for the taken path and
    for NT-Paths. It commits exactly the observable state transitions of the
    instrumented tier ([Cpu.step] under {!Engine.run} or {!Nt_path.run}) for
    the instructions it executes, and stops — committing nothing —
    immediately before any instruction that needs detector, watchpoint,
    syscall, recorder or spawn machinery — for watchpoints, any access to a
    word the watchpoint unit's filter flags. The caller then executes that
    instruction on the instrumented tier (deoptimization, not
    re-execution), keeping every observable bit-for-bit identical to a fully
    instrumented run.

    The two path kinds differ only in data fixed when the handle is built:
    the sandbox memory goes through, the cache owner and speculative flag,
    the coverage bitmaps written and the branch policy. A handle is built
    once per run (or per NT arena) so that a segment call allocates nothing:
    the per-segment budget travels through the handle, exit state is
    flushed straight into the context, and the stop constructors are all
    constant. *)

type stop =
  | Budget  (** segment budget exhausted *)
  | Special
      (** the instruction at [ctx.pc] needs the instrumented tier; nothing
          about it has been committed *)
  | Special_branch_taken
      (** a spawn-candidate conditional branch at [ctx.pc]; the fast tier
          evaluated its condition as taken (the engine cross-checks it
          against the instrumented tier's own evaluation) *)
  | Special_branch_nontaken
      (** like [Special_branch_taken] with the condition not taken *)
  | Overflow
      (** NT-Paths only: a sandboxed store overflowed the path's L1 line
          budget. The store has retired (stats and latency charged, [ctx.pc]
          left on it) — exactly the state the instrumented tier's raise
          leaves behind *)

(** A fast-tier handle, bound to one machine, context, coverage sink and
    path kind. *)
type t

(** [make machine ctx coverage ~sandbox ~spawning ~threshold].

    [sandbox = None] builds the taken-path tier: direct memory, committed
    non-speculative cache ownership, taken-path coverage. [Some sb] builds
    the NT-Path tier for a context sandboxed in [sb]: memory through the
    sandbox (buffered writes that can [Overflow]), the path's version tag
    as speculative cache owner — re-read from [ctx.l1] and [sb] at every
    {!run}, so per-spawn retargeting needs no rebuild — and NT-Path
    coverage.

    [spawning = false] follows every conditional branch's actual condition
    on the fast tier with no BTB traffic: the taken path under
    {!Pe_config.Baseline} without profiled fixing, and every NT-Path's
    inner branches. Otherwise a branch whose forced-edge counter probes
    below [threshold] (or misses the BTB) stops the segment. Passing
    [threshold = max_int] stops before *every* branch without touching the
    BTB — how configurations with per-branch actions keep straight-line
    code fast: random spawning's RNG draw, profiled fixing's observation,
    spawn-everywhere, and the [follow_nontaken_in_nt] ablation's cold-edge
    choice at NT-Path inner branches.

    Raises [Invalid_argument] if [coverage] is not over [machine]'s
    program. *)
val make :
  Machine.t ->
  Context.t ->
  Coverage.t ->
  sandbox:Context.sandbox option ->
  spawning:bool ->
  threshold:int ->
  t

(** [run t ~budget] executes up to [budget] instructions on the fast tier,
    starting at [ctx.pc]. Retired instructions are already added to [ctx]'s
    stats when this returns (read the count with {!retired}; the caller
    must add it to [Machine.insn_index]). [ctx.pc] is left at the next
    instruction to execute — for [Special]/[Special_branch_*], the
    instruction the instrumented tier must run.

    Preconditions (enforced by {!Engine.run} and {!Nt_path.run}): [ctx] is
    sandboxed in the handle's sandbox, or unsandboxed for [None]; no store
    hook. *)
val run : t -> budget:int -> stop

(** Instructions retired by the most recent {!run} segment. *)
val retired : t -> int
