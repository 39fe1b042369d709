(** Durable file replacement: the one way dmx swaps a whole file.

    The catalog snapshot and the log's truncation both rewrite a file that
    restart trusts. {!replace} writes the new contents to a temp file
    beside it, fsyncs that file, renames it over the old one and fsyncs the
    directory, so a crash at any point leaves the old file or the new one
    whole, and a power loss after {!replace} returns keeps the new one. *)

val replace :
  ?before_rename:(unit -> unit) -> sync:(Unix.file_descr -> unit) ->
  string -> (Unix.file_descr -> unit) -> Unix.file_descr
(** [replace ~sync path write] opens [path ^ ".tmp"] read-write and empty,
    runs [write] on it, then [sync] (the caller's counted fsync of the
    file), [before_rename], the rename over [path] and one fsync of the
    directory (counted in [durable.dir_fsyncs]). Returns the new file's
    descriptor, at the offset [write] left; the caller closes it. If
    [write], [sync] or [before_rename] raises, the temp file is closed and
    removed and the exception passes on. *)
