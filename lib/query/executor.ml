open Dmx_value
open Dmx_expr
open Dmx_core
module Descriptor = Dmx_catalog.Descriptor

type cursor = {
  next : unit -> Record.t option;
  close : unit -> unit;
}

let ( let* ) = Result.bind

let empty_cursor = { next = (fun () -> None); close = (fun () -> ()) }

(* ---- EXPLAIN ANALYZE instrumentation ----------------------------------- *)
(* One [op_stats] per plan operator; [analyze] builds the tree mirroring the
   plan shape and threads nodes into the cursor constructors below. Timing
   is inclusive of children (Postgres-style); direct and key-sequential
   fetch counts land on the operator that issued them; buffer-pool traffic
   is measured per [next] call with [Io_stats.diff] against the live
   counters. *)

type op_stats = {
  os_label : string;
  os_est_rows : float;  (* planner estimate; 0 for synthetic nodes *)
  mutable os_loops : int;  (* times the operator was (re)opened *)
  mutable os_rows : int;  (* rows produced *)
  mutable os_direct : int;  (* direct-by-key fetches issued *)
  mutable os_seq : int;  (* key-/record-sequential steps taken *)
  mutable os_us : float;
  mutable os_hits : int;
  mutable os_misses : int;
  mutable os_reads : int;
  mutable os_children : op_stats list;
}

let make_stats ?(est_rows = 0.) label =
  {
    os_label = label;
    os_est_rows = est_rows;
    os_loops = 0;
    os_rows = 0;
    os_direct = 0;
    os_seq = 0;
    os_us = 0.;
    os_hits = 0;
    os_misses = 0;
    os_reads = 0;
    os_children = [];
  }

let single_stats (s : Plan.single) =
  make_stats
    ~est_rows:s.Plan.est.Cost.est_rows
    (Plan.describe_access s.Plan.desc s.Plan.access)

let count_direct = function
  | Some st -> st.os_direct <- st.os_direct + 1
  | None -> ()

let count_seq = function
  | Some st -> st.os_seq <- st.os_seq + 1
  | None -> ()

let observe_cursor ctx st cur =
  let io = Dmx_page.Disk.stats (Dmx_page.Buffer_pool.disk ctx.Ctx.bp) in
  let next () =
    let before = Dmx_page.Io_stats.copy io in
    let t0 = Unix.gettimeofday () in
    let r = cur.next () in
    st.os_us <- st.os_us +. ((Unix.gettimeofday () -. t0) *. 1e6);
    let d = Dmx_page.Io_stats.diff ~after:io ~before in
    st.os_hits <- st.os_hits + d.Dmx_page.Io_stats.pool_hits;
    st.os_misses <- st.os_misses + d.Dmx_page.Io_stats.pool_misses;
    st.os_reads <- st.os_reads + d.Dmx_page.Io_stats.page_reads;
    (match r with Some _ -> st.os_rows <- st.os_rows + 1 | None -> ());
    r
  in
  { next; close = cur.close }

(* Pull-based view of a vectorized scan: the operator keeps the current run
   and hands records out one at a time, pulling the next run when drained.
   [os_seq] still counts key-sequential steps per record, and the run-pulling
   [next] carries the whole run's buffer-pool traffic in the surrounding
   [observe_cursor] diff, so per-operator stats stay exact under batching. *)
let cursor_of_run_scan ?stats (scan : Intf.run_scan) =
  let buf = ref [||] in
  let idx = ref 0 in
  let rec next () =
    if !idx < Array.length !buf then begin
      let _, r = (!buf).(!idx) in
      incr idx;
      count_seq stats;
      Some r
    end
    else
      match scan.rn_next () with
      | None -> None
      | Some run ->
        buf := run;
        idx := 0;
        next ()
  in
  { next; close = scan.rn_close }

(* Fetch-and-filter cursor over a stream of record keys; the residual
   predicate is tested on each fetched record. *)
let fetch_cursor ctx ?stats (desc : Descriptor.t) pred keys_next close =
  let (module M : Intf.STORAGE_METHOD) =
    Registry.storage_method desc.smethod_id
  in
  let rec next () =
    match keys_next () with
    | None -> None
    | Some key -> begin
      count_direct stats;
      match M.fetch ctx desc key () with
      | None -> next ()  (* entry pointing at a record deleted by us *)
      | Some record -> begin
        match pred with
        | Some p when not (Eval.test record p) -> next ()
        | _ -> Some record
      end
    end
  in
  { next; close }

let exec_single ctx ?stats (s : Plan.single) ~params =
  let pred = Option.map (Expr.subst_params params) s.predicate in
  let* base =
    match s.access with
    | Plan.Seq_scan ->
      let* scan = Relation.scan_batch ctx s.desc ?filter:pred () in
      Ok (cursor_of_run_scan ?stats scan)
    | Plan.Keyed_storage { key_fields } ->
      let lo, hi = Analyze.key_bounds ~key_fields pred in
      let* scan = Relation.scan_batch ctx s.desc ~lo ~hi ?filter:pred () in
      Ok (cursor_of_run_scan ?stats scan)
    | Plan.Index_eq { at_id; instance; fields } -> begin
      match Analyze.key_range ~key_fields:fields (Option.get pred) with
      | Some (eq, _) when Array.length eq = Array.length fields ->
        let* keys =
          Relation.lookup ctx s.desc ~attachment_id:at_id ~instance ~key:eq
        in
        let remaining = ref keys in
        let keys_next () =
          match !remaining with
          | [] -> None
          | k :: rest ->
            remaining := rest;
            Some k
        in
        Ok (fetch_cursor ctx ?stats s.desc pred keys_next (fun () -> ()))
      | _ ->
        (* Parameters failed to produce a full key (e.g. NULL): no matches
           under SQL semantics. *)
        Ok empty_cursor
    end
    | Plan.Index_range { at_id; instance; fields } ->
      let lo, hi = Analyze.key_bounds ~key_fields:fields pred in
      let* ks =
        Relation.attachment_scan ctx s.desc ~attachment_id:at_id ~instance ~lo
          ~hi ()
      in
      let ks_next =
        match stats with
        | None -> ks.Intf.ks_next
        | Some _ ->
          fun () ->
            (match ks.Intf.ks_next () with
            | Some _ as r ->
              count_seq stats;
              r
            | None -> None)
      in
      Ok (fetch_cursor ctx ?stats s.desc pred ks_next ks.Intf.ks_close)
    | Plan.Spatial { at_id; instance; rect_exprs } -> begin
      let rect_vals =
        Array.map
          (fun e -> Eval.eval [||] (Expr.subst_params params e))
          rect_exprs
      in
      match Array.exists (fun v -> v = Value.Null) rect_vals with
      | true -> Ok empty_cursor
      | false ->
        let* keys =
          Relation.lookup ctx s.desc ~attachment_id:at_id ~instance
            ~key:rect_vals
        in
        let remaining = ref keys in
        let keys_next () =
          match !remaining with
          | [] -> None
          | k :: rest ->
            remaining := rest;
            Some k
        in
        Ok (fetch_cursor ctx ?stats s.desc pred keys_next (fun () -> ()))
    end
  in
  match stats with
  | None -> Ok base
  | Some st ->
    st.os_loops <- st.os_loops + 1;
    Ok (observe_cursor ctx st base)

let extend_params params join_param v =
  let arr = Array.make (max (Array.length params) (join_param + 1)) Value.Null in
  Array.blit params 0 arr 0 (Array.length params);
  arr.(join_param) <- v;
  arr

let exec_join ?join_stats ?outer_stats ?inner_stats ctx ~outer
    ~(inner_desc : Descriptor.t) ~my_field ~other_field ~method_ ~params =
  ignore other_field;
  let finish cur =
    match join_stats with
    | None -> Ok cur
    | Some st ->
      st.os_loops <- st.os_loops + 1;
      Ok (observe_cursor ctx st cur)
  in
  match (method_ : Plan.join_method) with
  | Plan.Nested_loop { inner; join_param } ->
    let* outer_cur = exec_single ctx ?stats:outer_stats outer ~params in
    let state = ref None in  (* (outer record, inner cursor) *)
    let rec next () =
      match !state with
      | Some (orec, (inner_cur : cursor)) -> begin
        match inner_cur.next () with
        | Some irec -> Some (Array.append orec irec)
        | None ->
          inner_cur.close ();
          state := None;
          next ()
      end
      | None -> begin
        match outer_cur.next () with
        | None -> None
        | Some orec ->
          let params' = extend_params params join_param orec.(my_field) in
          (match exec_single ctx ?stats:inner_stats inner ~params:params' with
          | Ok inner_cur ->
            state := Some (orec, inner_cur);
            next ()
          | Error e -> Error.raise_err e)
      end
    in
    finish
      {
        next;
        close =
          (fun () ->
            (match !state with
            | Some (_, c) -> c.close ()
            | None -> ());
            outer_cur.close ());
      }
  | Plan.Via_join_index { at_id = _; instance } ->
    let pred =
      Option.map (Expr.subst_params params) outer.Plan.predicate
    in
    let pairs =
      ref (Dmx_attach.Join_index.pairs_of_instance ctx outer.Plan.desc ~instance)
    in
    let (module MO : Intf.STORAGE_METHOD) =
      Registry.storage_method outer.Plan.desc.Descriptor.smethod_id
    in
    let (module MI : Intf.STORAGE_METHOD) =
      Registry.storage_method inner_desc.Descriptor.smethod_id
    in
    let rec next () =
      match !pairs with
      | [] -> None
      | (okey, ikey) :: rest -> begin
        pairs := rest;
        count_direct join_stats;
        match MO.fetch ctx outer.Plan.desc okey () with
        | None -> next ()
        | Some orec ->
          if
            match pred with
            | Some p -> not (Eval.test orec p)
            | None -> false
          then next ()
          else begin
            count_direct join_stats;
            match MI.fetch ctx inner_desc ikey () with
            | None -> next ()
            | Some irec -> Some (Array.append orec irec)
          end
      end
    in
    finish { next; close = (fun () -> ()) }

let project_cursor projection (c : cursor) =
  match projection with
  | None -> c
  | Some fields ->
    {
      c with
      next =
        (fun () -> Option.map (fun r -> Record.project r fields) (c.next ()));
    }

let open_plan ctx (plan : Plan.t) ?(params = [||]) () =
  let* base =
    match plan.shape with
    | Plan.Single s -> exec_single ctx s ~params
    | Plan.Join { outer; inner_desc; my_field; other_field; method_ } ->
      exec_join ctx ~outer ~inner_desc ~my_field ~other_field ~method_ ~params
  in
  Ok (project_cursor plan.projection base)

let run ctx plan ?params () =
  match open_plan ctx plan ?params () with
  | Error _ as e -> e
  | exception Eval.Error msg -> Error (Error.Internal ("evaluation: " ^ msg))
  | Ok cursor ->
    let rec drain acc =
      match cursor.next () with
      | None ->
        cursor.close ();
        Ok (List.rev acc)
      | Some r -> drain (r :: acc)
      | exception Error.Error e ->
        cursor.close ();
        Error e
      | exception Eval.Error msg ->
        cursor.close ();
        Error (Error.Internal ("evaluation: " ^ msg))
      | exception e ->
        (* scan hygiene: any escaping exception must not leak the open scans
           behind this cursor (the DMX_SANITIZE scan-balance check would
           trip at commit) *)
        cursor.close ();
        raise e
    in
    drain []

(* ---- EXPLAIN ANALYZE --------------------------------------------------- *)

let analyze ctx (plan : Plan.t) ?(params = [||]) () =
  let open_base () =
    match plan.shape with
    | Plan.Single s ->
      let st = single_stats s in
      let* cur = exec_single ctx ~stats:st s ~params in
      Ok (st, cur)
    | Plan.Join { outer; inner_desc; my_field; other_field; method_ } -> begin
      match method_ with
      | Plan.Nested_loop { inner; _ } ->
        let outer_st = single_stats outer in
        let inner_st = single_stats inner in
        let join_st = make_stats "nested_loop" in
        join_st.os_children <- [ outer_st; inner_st ];
        let* cur =
          exec_join ~join_stats:join_st ~outer_stats:outer_st
            ~inner_stats:inner_st ctx ~outer ~inner_desc ~my_field
            ~other_field ~method_ ~params
        in
        Ok (join_st, cur)
      | Plan.Via_join_index { at_id; instance } ->
        let join_st =
          make_stats
            (Fmt.str "join_index(%s, %s via %s#%d)"
               (Plan.describe_access outer.Plan.desc outer.Plan.access)
               inner_desc.Descriptor.rel_name
               (Registry.attachment_name at_id)
               instance)
        in
        let* cur =
          exec_join ~join_stats:join_st ctx ~outer ~inner_desc ~my_field
            ~other_field ~method_ ~params
        in
        Ok (join_st, cur)
    end
  in
  match open_base () with
  | Error _ as e -> e
  | exception Eval.Error msg -> Error (Error.Internal ("evaluation: " ^ msg))
  | Ok (child_st, base) ->
    let root =
      make_stats
        (match plan.projection with Some _ -> "project" | None -> "result")
    in
    root.os_children <- [ child_st ];
    root.os_loops <- 1;
    let cursor = observe_cursor ctx root (project_cursor plan.projection base) in
    let rec drain acc =
      match cursor.next () with
      | None ->
        cursor.close ();
        Ok (List.rev acc, root)
      | Some r -> drain (r :: acc)
      | exception Error.Error e ->
        cursor.close ();
        Error e
      | exception Eval.Error msg ->
        cursor.close ();
        Error (Error.Internal ("evaluation: " ^ msg))
      | exception e ->
        cursor.close ();
        raise e
    in
    drain []

let rec node_of_stats st =
  let metrics =
    [ ("rows", string_of_int st.os_rows) ]
    @ (if st.os_est_rows > 0. then
         [ ("est", Printf.sprintf "%.1f" st.os_est_rows) ]
       else [])
    @ (if st.os_loops > 1 then [ ("loops", string_of_int st.os_loops) ]
       else [])
    @ (if st.os_direct > 0 then [ ("direct", string_of_int st.os_direct) ]
       else [])
    @ (if st.os_seq > 0 then [ ("seq", string_of_int st.os_seq) ] else [])
    @ [
        ( "pool",
          Printf.sprintf "%dh/%dm/%dr" st.os_hits st.os_misses st.os_reads );
        ("time", Dmx_obs.Report_txt.fmt_us st.os_us);
      ]
  in
  Dmx_obs.Report_txt.node st.os_label ~metrics
    ~children:(List.map node_of_stats st.os_children)

let pp_analysis ppf root = Dmx_obs.Report_txt.pp_tree ppf (node_of_stats root)
