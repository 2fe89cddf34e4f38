type app_class = Siemens | Spec | Open_source

type t = {
  name : string;
  descr : string;
  app_class : app_class;
  source : bug:int option -> string;
  bugs : Bug.t list;
  default_input : string;
  gen_input : Rng.t -> string;
  max_nt_path_length : int;
}

let app_class_name = function
  | Siemens -> "Siemens"
  | Spec -> "SPEC"
  | Open_source -> "open-source"

let bug_count workload = List.length workload.bugs

let find_bug workload version =
  match
    List.find_opt (fun b -> b.Bug.version = version) workload.bugs
  with
  | Some bug -> bug
  | None ->
    invalid_arg
      (Printf.sprintf "workload %s has no bug version %d" workload.name version)

(* Compile a workload, optionally with one planted bug version. Compilation
   is deterministic and the compiled image is read-only (machines never
   mutate the program), so results are memoised: experiment sweeps ask for
   the same workload×detector×bug combination over and over. The table is a
   bounded LRU — each hit restamps its entry with a monotonic tick and an
   insert past capacity drops the least-recently-used entry — so a sweep
   over arbitrarily many (source, opt) combinations holds at most
   [compile_cache_capacity] images at once instead of growing without
   eviction. The mutex keeps table and clock safe under parallel sweep
   domains; a racing duplicate compile just yields a structurally identical
   image. *)
let compile_capacity = ref 128
let compile_memo = Hashtbl.create 64
let compile_mutex = Mutex.create ()
let compile_clock = ref 0
let compile_evictions = ref 0

(* Drop least-recently-used entries until the table is under [limit].
   Called with the mutex held. O(size) per eviction — the table is small by
   construction, and eviction only happens on insert past capacity. *)
let evict_to_locked limit =
  while Hashtbl.length compile_memo > limit do
    let victim =
      Hashtbl.fold
        (fun key (_, stamp) acc ->
          match acc with
          | Some (_, best) when best <= !stamp -> acc
          | _ -> Some (key, !stamp))
        compile_memo None
    in
    match victim with
    | Some (key, _) ->
      Hashtbl.remove compile_memo key;
      incr compile_evictions
    | None -> ()
  done

let set_compile_cache_capacity n =
  if n < 1 then invalid_arg "Workload.set_compile_cache_capacity";
  Mutex.lock compile_mutex;
  compile_capacity := n;
  evict_to_locked n;
  Mutex.unlock compile_mutex

let compile_cache_length () =
  Mutex.lock compile_mutex;
  let n = Hashtbl.length compile_memo in
  Mutex.unlock compile_mutex;
  n

let compile_cache_evictions () =
  Mutex.lock compile_mutex;
  let n = !compile_evictions in
  Mutex.unlock compile_mutex;
  n

let compile ?(detector = Codegen.No_detector) ?(fixing = true) ?opt ?bug
    workload =
  let level =
    match opt with Some l -> l | None -> Opt.default_level ()
  in
  let key = (workload.name, detector, fixing, bug, level) in
  Mutex.lock compile_mutex;
  let cached =
    match Hashtbl.find_opt compile_memo key with
    | Some (compiled, stamp) ->
      incr compile_clock;
      stamp := !compile_clock;
      Some compiled
    | None -> None
  in
  Mutex.unlock compile_mutex;
  match cached with
  | Some compiled -> compiled
  | None ->
    let options = { Codegen.detector; fixing } in
    let compiled =
      Compile.compile ~options ~level (workload.source ~bug)
    in
    Mutex.lock compile_mutex;
    if not (Hashtbl.mem compile_memo key) then begin
      evict_to_locked (!compile_capacity - 1);
      incr compile_clock;
      Hashtbl.add compile_memo key (compiled, ref !compile_clock)
    end;
    Mutex.unlock compile_mutex;
    compiled

(* PathExpander configuration appropriate for this workload: the paper's
   MaxNTPathLength is 100 for the small Siemens programs and 1000 elsewhere;
   the Siemens budget is scaled to 500 for our more verbose code generator
   (EXPERIMENTS.md note 6). *)
let pe_config ?(mode = Pe_config.Standard) workload =
  {
    Pe_config.default with
    Pe_config.mode;
    max_nt_path_length = workload.max_nt_path_length;
  }

(* Source line count of the bug-free source (Table 3's LOC column). *)
let loc workload =
  let source = workload.source ~bug:None in
  String.fold_left (fun acc c -> if c = '\n' then acc + 1 else acc) 1 source
