type t = {
  mutable page_reads : int;
  mutable page_writes : int;
  mutable page_allocs : int;
  mutable pool_hits : int;
  mutable pool_misses : int;
}

let create () =
  { page_reads = 0; page_writes = 0; page_allocs = 0; pool_hits = 0; pool_misses = 0 }

let reset t =
  t.page_reads <- 0;
  t.page_writes <- 0;
  t.page_allocs <- 0;
  t.pool_hits <- 0;
  t.pool_misses <- 0

let copy t = { t with page_reads = t.page_reads }

(* A [reset] racing a before/after pair makes the "after" side smaller than
   the "before" snapshot; a negative I/O count is always wrong, so clamp. *)
let diff ~after ~before =
  let d a b = max 0 (a - b) in
  {
    page_reads = d after.page_reads before.page_reads;
    page_writes = d after.page_writes before.page_writes;
    page_allocs = d after.page_allocs before.page_allocs;
    pool_hits = d after.pool_hits before.pool_hits;
    pool_misses = d after.pool_misses before.pool_misses;
  }

let add a b =
  {
    page_reads = a.page_reads + b.page_reads;
    page_writes = a.page_writes + b.page_writes;
    page_allocs = a.page_allocs + b.page_allocs;
    pool_hits = a.pool_hits + b.pool_hits;
    pool_misses = a.pool_misses + b.pool_misses;
  }

let hit_ratio t =
  let total = t.pool_hits + t.pool_misses in
  if total = 0 then None else Some (float_of_int t.pool_hits /. float_of_int total)

let pp ppf t =
  Fmt.pf ppf "reads=%d writes=%d allocs=%d hits=%d misses=%d" t.page_reads
    t.page_writes t.page_allocs t.pool_hits t.pool_misses;
  match hit_ratio t with
  | None -> ()
  | Some r -> Fmt.pf ppf " (pool hit ratio %.1f%%)" (100. *. r)

let to_metrics ?(prefix = "io.") t =
  [
    (prefix ^ "page_reads", t.page_reads);
    (prefix ^ "page_writes", t.page_writes);
    (prefix ^ "page_allocs", t.page_allocs);
    (prefix ^ "pool_hits", t.pool_hits);
    (prefix ^ "pool_misses", t.pool_misses);
  ]
