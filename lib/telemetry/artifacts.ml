(* Output destinations shared by every exporter: the one canonical
   per-run directory writer behind [Recorder.save_dir] and [Obs.save_dir],
   and the up-front check binaries use to reject a bad output directory
   before they simulate anything. *)

let sanitize_label label =
  let buf = Buffer.create (String.length label) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' ->
        Buffer.add_char buf c
      | _ -> Buffer.add_char buf '_')
    label;
  if Buffer.length buf = 0 then "run" else Buffer.contents buf

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* Files are numbered in list order; a collected sweep arrives in
   {!Capture}'s canonical order, so identical sweeps name identical bytes
   identically, serial or [--jobs N]. *)
let save_dir ~dir ~prefix ~ext items =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  List.mapi
    (fun i (label, contents) ->
      let file =
        Filename.concat dir
          (Printf.sprintf "%s-%04d-%s.%s" prefix i (sanitize_label label) ext)
      in
      write_file file contents;
      file)
    items

let prepare_dir dir =
  let fail msg = Error (Printf.sprintf "%s: %s" dir msg) in
  match Unix.mkdir dir 0o755 with
  | () -> Ok ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _) ->
    if not (try Sys.is_directory dir with Sys_error _ -> false) then
      fail "Not a directory"
    else begin
      match Unix.access dir [ Unix.W_OK; Unix.X_OK ] with
      | () -> Ok ()
      | exception Unix.Unix_error (e, _, _) -> fail (Unix.error_message e)
    end
  | exception Unix.Unix_error (e, _, _) -> fail (Unix.error_message e)
