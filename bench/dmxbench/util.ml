(* Clock, errors, scratch directories and order statistics shared by the
   dmxbench modules. *)

exception Bench_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Bench_error s)) fmt

(* Monotonic nanoseconds: span and latency timing needs better than the
   microsecond resolution of [Unix.gettimeofday]. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* ---- scratch directories (always under the current directory) ---- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

(* ---- growable sample buffers ---- *)

module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.; len = 0 }

  let add t v =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let sorted t =
    let a = Array.sub t.data 0 t.len in
    Array.sort Float.compare a;
    a
end

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* Quartiles by the "exclusive" method of Python's
   [statistics.quantiles(values, n=4)], so spreads reported here match the
   ones an outside check computes from the same values. *)
let quartiles values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then (Float.nan, Float.nan, Float.nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let cut i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (cut 1, cut 2, cut 3)

let median values =
  let _, m, _ = quartiles values in
  m

(* The quartile on the better side: the lower quartile of times, the upper
   one of rates. Load from outside the process only ever slows a window
   down, so the better quartile follows the system's own speed through
   bursts that cover up to three quarters of a run, while a change to the
   system moves every window alike. *)
let better_quartile ~higher values =
  let q1, _, q3 = quartiles values in
  if higher then q3 else q1
