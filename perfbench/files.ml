(* File-system helpers: the artifact directory, its checks, and the
   cross-process count ledger. *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

let entries dir = if Sys.file_exists dir then Array.to_list (Sys.readdir dir) else []

let clear_dir dir =
  List.iter (fun f -> Sys.remove (Filename.concat dir f)) (entries dir)

let remove_dir dir =
  if Sys.file_exists dir then begin
    clear_dir dir;
    Sys.rmdir dir
  end

let dir_bytes dir =
  List.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (entries dir)

let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let parses s = Result.is_ok (Jsonu.parse s)

(* Counts the trace and snapshot files in [dir] and, when [parse], the files
   that do not parse: every trace line and every snapshot must be one JSON
   document. *)
let check_artifacts ~dir ~parse =
  List.fold_left
    (fun (traces, snaps, bad) f ->
      let text () = In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all in
      if has_prefix "trace-" f then
        let ok =
          (not parse)
          || List.for_all
               (fun l -> l = "" || parses l)
               (String.split_on_char '\n' (text ()))
        in
        (traces + 1, snaps, if ok then bad else bad + 1)
      else if has_prefix "obs-" f then
        let ok = (not parse) || parses (String.trim (text ())) in
        (traces, snaps + 1, if ok then bad else bad + 1)
      else (traces, snaps, bad + 1))
    (0, 0, 0) (entries dir)

(* The first process to run an executable on a workload, size and seed
   records its counts in [file]; every later one must reproduce them. *)
let ledger_agrees file ledger =
  let exe = Digest.to_hex (Digest.file Sys.executable_name) in
  let text =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf "%s %s\n" k v) (("exe", exe) :: ledger))
  in
  let previous =
    if Sys.file_exists file then Some (In_channel.with_open_bin file In_channel.input_all)
    else None
  in
  match previous with
  | Some p when has_prefix (Printf.sprintf "exe %s\n" exe) p -> p = text
  | _ ->
    Out_channel.with_open_bin file (fun oc -> output_string oc text);
    true
