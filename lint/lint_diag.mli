(** Lint diagnostics: one violation at one source location.

    [file] is a root-relative path with ['/'] separators so diagnostics are
    stable across checkouts and build sandboxes. *)

type t = { rule : string; file : string; line : int; msg : string }

val make : rule:string -> file:string -> line:int -> string -> t

val compare : t -> t -> int
(** Order by file, then line, then rule — the report order. *)

val pp : Format.formatter -> t -> unit
(** [file:line: [rule] message] — the format editors and CI understand. *)
