(** Byte codecs for values, records and extension descriptors.

    Extensions serialise their descriptor data and log payloads with these
    primitives so the common system can store them opaquely (catalog fields,
    log records, page payloads). *)

(** Append-only encoder. *)
module Enc : sig
  type t

  val create : ?size:int -> unit -> t
  val byte : t -> int -> unit
  val varint : t -> int -> unit
  (** Unsigned LEB128; [n] must be [>= 0]. *)

  val int64 : t -> int64 -> unit
  val float : t -> float -> unit
  val bool : t -> bool -> unit
  val string : t -> string -> unit
  (** Length-prefixed. *)

  val bytes : t -> bytes -> unit
  val value : t -> Value.t -> unit
  val record : t -> Value.t array -> unit
  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
  val option : t -> (t -> 'a -> unit) -> 'a option -> unit
  val length : t -> int
  (** Bytes encoded so far. *)

  val blit : t -> bytes -> int -> unit
  (** [blit t dst pos] copies everything encoded into [dst] at [pos]. *)

  val to_bytes : t -> bytes
  val to_string : t -> string
end

(** Cursor-based decoder. Raises [Failure] on malformed input. *)
module Dec : sig
  type t

  val of_bytes : bytes -> t
  val of_string : string -> t

  val of_string_span : string -> pos:int -> len:int -> t
  (** Decode within [s.[pos .. pos+len-1]] without copying the span out —
      vectorized scans decode record payloads directly from the pinned page
      image. Raises [Invalid_argument] when the span exceeds [s]. *)

  val byte : t -> int
  val varint : t -> int
  val int64 : t -> int64
  val float : t -> float
  val bool : t -> bool
  val string : t -> string

  val skip_string : t -> unit
  (** Advance past a length-prefixed string without copying it. *)

  val bytes : t -> bytes
  val value : t -> Value.t

  val skip_value : t -> unit
  (** Advance past one encoded value without materializing it (late
      materialization: filters read only the fields they use). *)

  val compare_value : t -> Value.t -> int
  (** [compare_value d v] has the sign of [Value.compare x v], where [x] is
      the value encoded at the cursor, and advances past [x] without
      materializing it or allocating: B-tree nodes are searched in the
      pinned frame. *)

  val record : t -> Value.t array

  val skip_record : t -> unit
  (** Advance past one encoded record. *)

  val list : t -> (t -> 'a) -> 'a list
  val option : t -> (t -> 'a) -> 'a option
  val offset : t -> int
  (** The cursor's position, for a later {!seek} back to it. *)

  val seek : t -> int -> unit
  (** Move the cursor to a position taken with {!offset}: re-read an entry
      that an in-place compare has already consumed. *)

  val at_end : t -> bool
  val remaining : t -> int
end

val varint_end : string -> int -> int
(** [varint_end s p] is the offset just past the varint encoded at [p]. *)

val record_end : string -> int -> int
(** [record_end s p] is the offset just past the record encoded at [p],
    found by reading its lengths in place, without a decoder and without
    allocating: hash bucket probes step over the entries of a pinned
    page this way. Raises [Failure] on a bad value tag and
    [Invalid_argument] past the end of [s]. *)

val encode_record : Value.t array -> bytes
val decode_record : bytes -> Value.t array
val encode_schema : Schema.t -> bytes
val decode_schema : bytes -> Schema.t
