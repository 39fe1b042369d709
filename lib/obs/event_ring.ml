type kind = Span | Event

type entry = {
  e_seq : int;
  e_ts : float;
  e_kind : kind;
  e_name : string;
  e_txid : int;
  e_us : float;
  e_outcome : string;
  e_slow : bool;
}

let default_capacity = 512
let default_slow_us = 10_000.

(* The circular buffer proper. [head] is the next write position; [size]
   saturates at the capacity; [seq] counts entries ever recorded. *)
type t = {
  mutable entries : entry array;
  mutable head : int;
  mutable size : int;
  mutable seq : int;
  mutable slow_us : float;
}

let null_entry =
  {
    e_seq = 0;
    e_ts = 0.;
    e_kind = Event;
    e_name = "";
    e_txid = 0;
    e_us = 0.;
    e_outcome = "";
    e_slow = false;
  }

let create () =
  {
    entries = Array.make default_capacity null_entry;
    head = 0;
    size = 0;
    seq = 0;
    slow_us = default_slow_us;
  }

let capacity t = Array.length t.entries
let slow_us t = t.slow_us
let set_slow_us t us = t.slow_us <- Float.max 0. us

let reset t =
  Array.fill t.entries 0 (Array.length t.entries) null_entry;
  t.head <- 0;
  t.size <- 0;
  t.seq <- 0

let set_capacity t n =
  t.entries <- Array.make (max 1 n) null_entry;
  reset t

let is_slow t us = t.slow_us > 0. && us >= t.slow_us

let record t ~kind ~name ~txid ~us ~outcome =
  let cap = Array.length t.entries in
  t.seq <- t.seq + 1;
  t.entries.(t.head) <-
    {
      e_seq = t.seq;
      e_ts = Unix.gettimeofday ();
      e_kind = kind;
      e_name = name;
      e_txid = txid;
      e_us = us;
      e_outcome = outcome;
      e_slow = is_slow t us;
    };
  t.head <- (t.head + 1) mod cap;
  if t.size < cap then t.size <- t.size + 1

let snapshot t =
  let cap = Array.length t.entries in
  let oldest = (t.head - t.size + cap) mod cap in
  List.init t.size (fun i -> t.entries.((oldest + i) mod cap))

let total t = t.seq
let dropped t = t.seq - t.size
