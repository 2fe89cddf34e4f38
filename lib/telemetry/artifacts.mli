(** Where exported artifacts land: the canonical per-run directory writer
    shared by the flight recorder and the Coverage Observatory, plus an
    up-front directory check so a binary can refuse a bad output path
    before it simulates anything. *)

(** [save_dir ~dir ~prefix ~ext items] writes one file per
    [(label, contents)] pair into [dir] (created if missing), named
    [<prefix>-NNNN-<label>.<ext>] with the label reduced to
    [[A-Za-z0-9._-]]. Files are numbered in list order: pass items in
    {!Capture}'s canonical order and a parallel sweep writes
    byte-identical files to a serial one. Returns the paths written, in
    that order. *)
val save_dir :
  dir:string -> prefix:string -> ext:string -> (string * string) list ->
  string list

(** Make sure [dir] exists (creating one level if missing) and is a
    writable directory. The error is a one-line ["<dir>: <reason>"]. *)
val prepare_dir : string -> (unit, string) result
