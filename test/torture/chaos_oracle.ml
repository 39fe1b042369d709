(* Attachment-consistency oracle.

   After a crash + reopen (or at the end of a fault-free run) the reopened
   database must agree with the reference model's committed state:

   - winners present / losers absent: the base-relation scans must match the
     model row-for-row, including storage record keys (undo reinstates
     records at their original slots);
   - every access-path attachment, diffed against a full base scan: the
     unique btree index, the hash index, the non-unique btree index and the
     rtree must each map exactly the live keys — probed both per-key and via
     full scans, so ghost entries and missing entries are both caught;
   - constraint and derived-data attachments: every live child's pid names a
     live parent (refint), and the materialised aggregate and the stats
     instance's live count and salary sum equal what the base scan
     recomputes. *)

open Dmx_value
open Dmx_core
module W = Chaos_workload
module M = Chaos_model

let vi i = Value.Int (Int64.of_int i)
let pp_keys = Fmt.(list ~sep:comma Record_key.pp)
let sort_keys l = List.sort Record_key.compare l
let keys_equal a b = List.compare Record_key.compare (sort_keys a) (sort_keys b) = 0

type ctx = { txn : Ctx.t; failures : string list ref }

let failf o fmt = Fmt.kstr (fun s -> o.failures := s :: !(o.failures)) fmt

let ok o what = function
  | Ok v -> Some v
  | Error e ->
    failf o "%s: unexpected error %a" what Error.pp e;
    None

(* ---- base relations vs model ---- *)

let id_of_record what o (r : Record.t) =
  match r.(0) with
  | Value.Int i -> Int64.to_int i
  | v ->
    failf o "%s: non-int id %a" what Value.pp v;
    -1

(* Scan the relation and return id -> (key, record), complaining about
   duplicate ids on the way. *)
let scan_by_id o desc what =
  match ok o (what ^ " scan") (Relation.scan o.txn desc ()) with
  | None -> M.Imap.empty
  | Some sc ->
    List.fold_left
      (fun m (k, r) ->
        let id = id_of_record what o r in
        if M.Imap.mem id m then failf o "%s: duplicate id %d in base scan" what id;
        M.Imap.add id (k, r) m)
      M.Imap.empty
      (Scan_help.record_scan_to_list sc)

let check_rows o what (actual : (Record_key.t * Record.t) M.Imap.t)
    (expected_rows : M.row M.Imap.t) (expected_keys : Record_key.t M.Imap.t)
    ~(record_of : id:int -> M.row -> Record.t) =
  M.Imap.iter
    (fun id row ->
      match M.Imap.find_opt id actual with
      | None -> failf o "%s: winner id=%d missing after recovery" what id
      | Some (k, r) ->
        let want = record_of ~id row in
        if not (Record.equal r want) then
          failf o "%s: id=%d wrong contents: got %a, want %a" what id Record.pp
            r Record.pp want;
        (match M.Imap.find_opt id expected_keys with
        | Some wk when not (Record_key.equal k wk) ->
          failf o "%s: id=%d record key moved: got %a, want %a" what id
            Record_key.pp k Record_key.pp wk
        | _ -> ()))
    expected_rows;
  M.Imap.iter
    (fun id _ ->
      if not (M.Imap.mem id expected_rows) then
        failf o "%s: loser id=%d present after recovery" what id)
    actual

(* ---- access-path audits ---- *)

let lookup o desc ~att ~instance ~key what =
  match
    ok o what (Relation.lookup o.txn desc ~attachment_id:att ~instance ~key)
  with
  | None -> []
  | Some keys -> keys

let check_lookup o desc ~att ~instance ~key what expected =
  let got = lookup o desc ~att ~instance ~key what in
  if not (keys_equal got expected) then
    failf o "%s: got [%a], want [%a]" what pp_keys (sort_keys got) pp_keys
      (sort_keys expected)

let full_index_scan o desc ~att ~instance what =
  match
    ok o what (Relation.attachment_scan o.txn desc ~attachment_id:att ~instance ())
  with
  | None -> []
  | Some sc -> Scan_help.key_scan_to_list sc

let check_full_scan o desc ~att ~instance what expected =
  let got = full_index_scan o desc ~att ~instance what in
  if not (keys_equal got expected) then
    failf o "%s: full scan got %d keys [%a], want %d [%a]" what
      (List.length got) pp_keys (sort_keys got) (List.length expected) pp_keys
      (sort_keys expected)

let live_keys actual = M.Imap.fold (fun _ (k, _) acc -> k :: acc) actual []

let check_parent_indexes o descp (actual_p : (Record_key.t * Record.t) M.Imap.t) =
  let bi = Option.get (Registry.attachment_id "btree_index") in
  let hi = Option.get (Registry.attachment_id "hash_index") in
  let pk_no =
    match Dmx_attach.Btree_index.instance_number descp ~name:"pk" with
    | Some n -> n
    | None ->
      failf o "parent: btree index \"pk\" missing from descriptor";
      1
  in
  (* unique btree on id: point probes over the whole id universe *)
  for id = 0 to W.parent_universe - 1 do
    let expected =
      match M.Imap.find_opt id actual_p with Some (k, _) -> [ k ] | None -> []
    in
    check_lookup o descp ~att:bi ~instance:pk_no ~key:[| vi id |]
      (Fmt.str "pk lookup id=%d" id)
      expected
  done;
  check_full_scan o descp ~att:bi ~instance:pk_no "pk" (live_keys actual_p);
  (* hash on dept: probe every dept bucket *)
  for d = 0 to W.dept_count - 1 do
    let dept = Fmt.str "d%d" d in
    let expected =
      M.Imap.fold
        (fun _ (k, r) acc ->
          match r.(1) with
          | Value.String s when String.equal s dept -> k :: acc
          | _ -> acc)
        actual_p []
    in
    check_lookup o descp ~att:hi ~instance:1
      ~key:[| Value.String dept |]
      (Fmt.str "hdept lookup %s" dept)
      expected
  done;
  (* rtree: per-row window query must see the row; a window covering the
     whole plane must see exactly the live rows *)
  let rect_of r =
    let f i = match Value.to_float r.(i) with Some f -> f | None -> nan in
    Dmx_rtree.Rect.make ~xlo:(f 3) ~ylo:(f 4) ~xhi:(f 5) ~yhi:(f 6)
  in
  M.Imap.iter
    (fun id (k, r) ->
      let hits =
        Dmx_attach.Rtree_index.lookup_overlapping o.txn descp ~instance:1
          (rect_of r)
      in
      if not (List.exists (Record_key.equal k) hits) then
        failf o "prt: live parent id=%d invisible to its own window query" id)
    actual_p;
  let everywhere =
    Dmx_rtree.Rect.make ~xlo:(-1e9) ~ylo:(-1e9) ~xhi:1e9 ~yhi:1e9
  in
  let all =
    Dmx_attach.Rtree_index.lookup_overlapping o.txn descp ~instance:1 everywhere
  in
  if not (keys_equal all (live_keys actual_p)) then
    failf o "prt: plane query got %d keys [%a], want %d [%a]" (List.length all)
      pp_keys (sort_keys all)
      (M.Imap.cardinal actual_p)
      pp_keys
      (sort_keys (live_keys actual_p))

let check_agg o descp (actual_p : (Record_key.t * Record.t) M.Imap.t) =
  (* recompute group-by-dept count/sum(salary) from the base scan *)
  let expected = Hashtbl.create 8 in
  M.Imap.iter
    (fun _ (_, r) ->
      match (r.(1), r.(2)) with
      | Value.String dept, Value.Int sal ->
        let c, s =
          match Hashtbl.find_opt expected dept with
          | Some cs -> cs
          | None -> (0, 0L)
        in
        Hashtbl.replace expected dept (c + 1, Int64.add s sal)
      | _ -> failf o "agg: malformed parent row %a" Record.pp r)
    actual_p;
  let groups = Dmx_attach.Agg.groups o.txn descp ~name:"pagg" in
  List.iter
    (fun (g : Dmx_attach.Agg.group) ->
      match g.group_values with
      | [| Value.String dept |] -> begin
        match Hashtbl.find_opt expected dept with
        | None ->
          failf o "agg: ghost group %s (count=%d sum=%Ld)" dept g.count g.sum
        | Some (c, s) ->
          if g.count <> c || not (Int64.equal g.sum s) then
            failf o "agg: group %s got count=%d sum=%Ld, want count=%d sum=%Ld"
              dept g.count g.sum c s;
          Hashtbl.remove expected dept
      end
      | gv ->
        failf o "agg: malformed group key [%a]"
          Fmt.(array ~sep:comma Value.pp)
          gv)
    groups;
  Hashtbl.iter
    (fun dept (c, s) ->
      failf o "agg: missing group %s (count=%d sum=%Ld)" dept c s)
    expected

(* stats(salary): live count and sum recomputed from the base scan *)
let check_stats o descp (actual_p : (Record_key.t * Record.t) M.Imap.t) =
  let want_count = M.Imap.cardinal actual_p in
  let want_sum =
    M.Imap.fold
      (fun _ (_, r) acc ->
        match r.(2) with Value.Int s -> Int64.add acc s | _ -> acc)
      actual_p 0L
  in
  match Dmx_attach.Stats.get o.txn descp ~name:"pstats" with
  | None -> failf o "stats: instance \"pstats\" missing from descriptor"
  | Some s ->
    let sum =
      match s.Dmx_attach.Stats.per_field with
      | [ f ] -> f.Dmx_attach.Stats.sum
      | _ -> Int64.min_int
    in
    if s.Dmx_attach.Stats.live_count <> want_count || not (Int64.equal sum want_sum)
    then
      failf o "stats: got count=%d sum=%Ld, want count=%d sum=%Ld"
        s.Dmx_attach.Stats.live_count sum want_count want_sum

let check_child_indexes o descc (actual_c : (Record_key.t * Record.t) M.Imap.t)
    (actual_p : (Record_key.t * Record.t) M.Imap.t) =
  let bi = Option.get (Registry.attachment_id "btree_index") in
  let camt_no =
    match Dmx_attach.Btree_index.instance_number descc ~name:"camt" with
    | Some n -> n
    | None ->
      failf o "child: btree index \"camt\" missing from descriptor";
      1
  in
  for amt = 0 to W.amt_universe - 1 do
    let expected =
      M.Imap.fold
        (fun _ (k, r) acc ->
          match r.(2) with
          | Value.Int a when Int64.to_int a = amt -> k :: acc
          | _ -> acc)
        actual_c []
    in
    check_lookup o descc ~att:bi ~instance:camt_no ~key:[| vi amt |]
      (Fmt.str "camt lookup amt=%d" amt)
      expected
  done;
  check_full_scan o descc ~att:bi ~instance:camt_no "camt" (live_keys actual_c);
  (* refint invariant, recomputed from the base scans themselves: every
     non-NULL pid must name a live parent *)
  M.Imap.iter
    (fun id (_, r) ->
      match r.(1) with
      | Value.Null -> ()
      | Value.Int pid ->
        if not (M.Imap.mem (Int64.to_int pid) actual_p) then
          failf o "refint: child id=%d references dead parent %Ld" id pid
      | v -> failf o "refint: child id=%d malformed pid %a" id Value.pp v)
    actual_c

(* ---- entry point ---- *)

let check services ~(committed : M.state option) =
  let txn = Services.begin_txn services in
  let o = { txn; failures = ref [] } in
  (match committed with
  | None ->
    (* The schema-creating transaction lost: no relations may exist. *)
    List.iter
      (fun name ->
        match Dmx_ddl.Ddl.find_relation txn name with
        | Error _ -> ()
        | Ok _ -> failf o "relation %S exists but its DDL never committed" name)
      [ "p"; "c"; "b" ]
  | Some st ->
    let find = Dmx_ddl.Ddl.find_relation txn in
    (match (find "p", find "c", find "b") with
    | Ok descp, Ok descc, Ok descb ->
      let actual_p = scan_by_id o descp "parent" in
      let actual_c = scan_by_id o descc "child" in
      check_rows o "bulk" (scan_by_id o descb "bulk") st.M.b st.M.bk
        ~record_of:(fun ~id (row : M.row) -> W.bulk_record ~id ~v:row.M.r_v);
      check_rows o "parent" actual_p st.M.p st.M.pk
        ~record_of:(fun ~id (row : M.row) -> W.parent_record ~id ~v:row.M.r_v);
      check_rows o "child" actual_c st.M.c st.M.ck
        ~record_of:(fun ~id (row : M.row) ->
          W.child_record ~id ~pid:row.M.r_pid ~v:row.M.r_v);
      check_parent_indexes o descp actual_p;
      check_agg o descp actual_p;
      check_stats o descp actual_p;
      check_child_indexes o descc actual_c actual_p
    | pr, cr, br ->
      List.iter
        (fun (name, r) ->
          match r with
          | Error e -> failf o "relation %S lost: %a" name Error.pp e
          | Ok _ -> ())
        [ ("p", pr); ("c", cr); ("b", br) ]));
  Services.commit services txn;
  List.rev !(o.failures)
