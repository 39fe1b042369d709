open Dmx_value

(* Run length for vectorized scans. *)
let default_run_length = 256
let run_length_override = ref None [@@dmx.global "config-immutable-after-setup"]
let set_run_length_for_testing n = run_length_override := n

let run_length () =
  match !run_length_override with Some n -> n | None -> default_run_length

let filtered ?filter ~next ~close ~capture () =
  let rs_next () =
    let rec loop () =
      match next () with
      | None -> None
      | Some (_key, record) as hit -> begin
        match filter with
        | None -> hit
        | Some pred -> if Dmx_expr.Eval.test record pred then hit else loop ()
      end
    in
    loop ()
  in
  { Intf.rs_next; rs_close = close; rs_capture = capture }

let filtered_batch ?filter ~next_run ~close ~capture () =
  let rn_next () =
    match filter with
    | None -> next_run ()
    | Some pred ->
      let rec loop () =
        match next_run () with
        | None -> None
        | Some run ->
          let n = Array.length run in
          let count = ref 0 in
          for i = 0 to n - 1 do
            let _, record = run.(i) in
            if Dmx_expr.Eval.test record pred then begin
              (* compact qualifying hits toward the front in place: the raw
                 run is ours (producers build a fresh array per run) *)
              run.(!count) <- run.(i);
              incr count
            end
          done;
          if !count = 0 then loop ()
          else if !count = n then Some run
          else Some (Array.sub run 0 !count)
      in
      loop ()
  in
  { Intf.rn_next; rn_close = close; rn_capture = capture }

let runs_of_scan (s : Intf.record_scan) =
  let n = run_length () in
  let rn_next () =
    match s.rs_next () with
    | None -> None
    | Some hit ->
      let buf = ref [ hit ] in
      let count = ref 1 in
      (try
         while !count < n do
           match s.rs_next () with
           | None -> raise Exit
           | Some hit ->
             buf := hit :: !buf;
             incr count
         done
       with Exit -> ());
      Some (Array.of_list (List.rev !buf))
  in
  { Intf.rn_next; rn_close = s.rs_close; rn_capture = s.rs_capture }

type cursor = {
  mutable run : Intf.record_run;  (* the buffered run *)
  mutable idx : int;  (* records of [run] already delivered *)
  mutable refetch : unit -> unit;  (* restores the inner position before [run] *)
  mutable seen : int;  (* the transaction's modification count at the last read *)
  mutable last : Record_key.t option;  (* the last delivered key *)
}

let records_of_runs (ctx : Ctx.t) (inner : Intf.run_scan) =
  let txn = ctx.Ctx.txn in
  let c =
    { run = [||]; idx = 0; refetch = inner.rn_capture ();
      seen = txn.Dmx_txn.Txn.mods; last = None }
  in
  (* A drained producer leaves the buffered run in place, so a later re-read
     still starts before it. *)
  let fetch () =
    let before = inner.rn_capture () in
    match inner.rn_next () with
    | None -> false
    | Some run ->
      c.run <- run;
      c.idx <- 0;
      c.refetch <- before;
      true
  in
  (* Runs are key-sequential, so the records already delivered are exactly
     those at or before the last delivered key. *)
  let rec skip_delivered () =
    if c.idx < Array.length c.run then begin
      match c.last with
      | Some last when Record_key.compare (fst c.run.(c.idx)) last <= 0 ->
        c.idx <- c.idx + 1;
        skip_delivered ()
      | Some _ | None -> ()
    end
    else if fetch () then skip_delivered ()
  in
  let rec rs_next () =
    if c.seen <> txn.Dmx_txn.Txn.mods then begin
      (* the transaction modified a relation since the run was read: re-read
         it, so deletes, inserts and updates ahead of the position show *)
      c.seen <- txn.Dmx_txn.Txn.mods;
      c.refetch ();
      c.idx <- Array.length c.run;
      skip_delivered ()
    end;
    if c.idx < Array.length c.run then begin
      let ((key, _) as hit) = c.run.(c.idx) in
      c.idx <- c.idx + 1;
      c.last <- Some key;
      Some hit
    end
    else if fetch () then rs_next ()
    else None
  in
  let rs_capture () =
    let restore_inner = inner.rn_capture () in
    let { run; idx; refetch; seen; last } = c in
    fun () ->
      restore_inner ();
      c.run <- run;
      c.idx <- idx;
      c.refetch <- refetch;
      c.seen <- seen;
      c.last <- last
  in
  { Intf.rs_next; rs_close = inner.rn_close; rs_capture }

let key_scan_of ~next ~close ~capture () =
  { Intf.ks_next = next; ks_close = close; ks_capture = capture }

let record_scan_to_list (s : Intf.record_scan) =
  let rec loop acc =
    match s.rs_next () with
    | None ->
      s.rs_close ();
      List.rev acc
    | Some hit -> loop (hit :: acc)
  in
  loop []

let run_scan_to_list (s : Intf.run_scan) =
  let rec loop acc =
    match s.rn_next () with
    | None ->
      s.rn_close ();
      List.rev acc
    | Some run -> loop (List.rev_append (Array.to_list run) acc)
  in
  loop []

let key_scan_to_list (s : Intf.key_scan) =
  let rec loop acc =
    match s.ks_next () with
    | None ->
      s.ks_close ();
      List.rev acc
    | Some hit -> loop (hit :: acc)
  in
  loop []
