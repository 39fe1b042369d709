open Dmx_value
open Dmx_page
open Dmx_btree
open Test_util

let make_tree_bp () =
  let d = Disk.in_memory () in
  let bp = Buffer_pool.create ~capacity:128 d in
  (Btree.create bp, bp)

let make_tree () = fst (make_tree_bp ())

let k n = [| vi n |]

(* Unlogged single-purpose mutators over [Btree.set]. *)
let insert t ~key ~payload =
  match Btree.set t ~key ~log:ignore (Btree.if_absent payload) with
  | None -> `Ok
  | Some _ -> `Duplicate

let replace t ~key ~payload =
  match Btree.set t ~key ~log:ignore (fun _ -> Some payload) with
  | None -> `Inserted
  | Some _ -> `Replaced

let delete t ~key = Btree.set t ~key ~log:ignore (fun _ -> None) <> None

let test_insert_find () =
  let t = make_tree () in
  for i = 1 to 500 do
    match insert t ~key:(k i) ~payload:(string_of_int i) with
    | `Ok -> ()
    | `Duplicate -> Alcotest.failf "dup at %d" i
  done;
  Alcotest.(check int) "count" 500 (Btree.count t);
  Alcotest.(check bool) "height grew" true (Btree.height t > 1);
  for i = 1 to 500 do
    Alcotest.(check (option string))
      (Fmt.str "find %d" i)
      (Some (string_of_int i))
      (Btree.find t ~key:(k i))
  done;
  Alcotest.(check (option string)) "absent" None (Btree.find t ~key:(k 501));
  match Btree.check_invariants t with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_duplicate () =
  let t = make_tree () in
  ignore (insert t ~key:(k 1) ~payload:"a");
  Alcotest.(check bool) "dup refused" true
    (insert t ~key:(k 1) ~payload:"b" = `Duplicate);
  Alcotest.(check bool) "replace" true
    (replace t ~key:(k 1) ~payload:"b" = `Replaced);
  Alcotest.(check (option string)) "replaced" (Some "b") (Btree.find t ~key:(k 1))

let test_delete () =
  let t = make_tree () in
  for i = 1 to 300 do
    ignore (insert t ~key:(k i) ~payload:(string_of_int i))
  done;
  for i = 1 to 300 do
    if i mod 2 = 0 then
      Alcotest.(check bool) "delete" true (delete t ~key:(k i))
  done;
  Alcotest.(check bool) "delete absent" false (delete t ~key:(k 2));
  Alcotest.(check int) "count after" 150 (Btree.count t);
  for i = 1 to 300 do
    let expect = if i mod 2 = 0 then None else Some (string_of_int i) in
    Alcotest.(check (option string)) (Fmt.str "post %d" i) expect
      (Btree.find t ~key:(k i))
  done;
  match Btree.check_invariants t with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_random_order () =
  let t = make_tree () in
  let n = 1000 in
  let perm = Array.init n (fun i -> i) in
  let st = Random.State.make [| 42 |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let tmp = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- tmp
  done;
  Array.iter
    (fun i -> ignore (insert t ~key:(k i) ~payload:(string_of_int i)))
    perm;
  (* iteration is sorted *)
  let last = ref (-1) in
  Btree.iter t (fun key _ ->
      let v = Int64.to_int (Option.get (Value.to_int key.(0))) in
      Alcotest.(check bool) "ascending" true (v > !last);
      last := v);
  Alcotest.(check int) "all there" n (Btree.count t);
  match Btree.check_invariants t with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_cursor_range () =
  let t = make_tree () in
  for i = 0 to 99 do
    ignore (insert t ~key:(k i) ~payload:(string_of_int i))
  done;
  let collect c =
    let rec loop acc =
      match Btree.next c with
      | None -> List.rev acc
      | Some (key, _) ->
        loop (Int64.to_int (Option.get (Value.to_int key.(0))) :: acc)
    in
    loop []
  in
  let got = collect (Btree.cursor ~lo:(Btree.Incl (k 10)) ~hi:(Btree.Excl (k 15)) t) in
  Alcotest.(check (list int)) "range" [ 10; 11; 12; 13; 14 ] got;
  let got = collect (Btree.cursor ~lo:(Btree.Excl (k 95)) t) in
  Alcotest.(check (list int)) "open hi" [ 96; 97; 98; 99 ] got

let test_cursor_prefix () =
  let t = make_tree () in
  List.iter
    (fun (a, b) ->
      ignore
        (insert t ~key:[| vs a; vi b |] ~payload:(a ^ string_of_int b)))
    [ ("eng", 1); ("eng", 2); ("ops", 1); ("eng", 3); ("hr", 9) ];
  let c =
    Btree.cursor ~lo:(Btree.Incl [| vs "eng" |]) ~hi:(Btree.Incl [| vs "eng" |]) t
  in
  let rec collect acc =
    match Btree.next c with
    | None -> List.rev acc
    | Some (_, p) -> collect (p :: acc)
  in
  Alcotest.(check (list string)) "prefix scan" [ "eng1"; "eng2"; "eng3" ]
    (collect [])

let test_cursor_survives_delete () =
  let t = make_tree () in
  for i = 0 to 20 do
    ignore (insert t ~key:(k i) ~payload:(string_of_int i))
  done;
  let c = Btree.cursor t in
  let step () =
    match Btree.next c with
    | Some (key, _) -> Int64.to_int (Option.get (Value.to_int key.(0)))
    | None -> Alcotest.fail "unexpected end"
  in
  Alcotest.(check int) "first" 0 (step ());
  Alcotest.(check int) "second" 1 (step ());
  (* Delete the item the cursor is on: scan is positioned just after it. *)
  ignore (delete t ~key:(k 1));
  Alcotest.(check int) "after deleted current" 2 (step ());
  (* Delete ahead of the cursor too. *)
  ignore (delete t ~key:(k 3));
  Alcotest.(check int) "skips deleted ahead" 4 (step ())

let test_cursor_capture_restore () =
  let t = make_tree () in
  for i = 0 to 9 do
    ignore (insert t ~key:(k i) ~payload:(string_of_int i))
  done;
  let c = Btree.cursor t in
  ignore (Btree.next c);
  ignore (Btree.next c);
  let saved = Btree.position c in
  ignore (Btree.next c);
  ignore (Btree.next c);
  Btree.seek c saved;
  match Btree.next c with
  | Some (key, _) ->
    Alcotest.(check int) "resumes after saved position" 2
      (Int64.to_int (Option.get (Value.to_int key.(0))))
  | None -> Alcotest.fail "cursor exhausted"

let test_large_payloads () =
  let t = make_tree () in
  (* payloads near page capacity force frequent splits *)
  for i = 0 to 63 do
    ignore (insert t ~key:(k i) ~payload:(String.make 900 (Char.chr (65 + (i mod 26)))))
  done;
  Alcotest.(check int) "count" 64 (Btree.count t);
  match Btree.check_invariants t with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_string_keys_order () =
  let t = make_tree () in
  let words = [ "pear"; "apple"; "fig"; "grape"; "banana"; "kiwi" ] in
  List.iter (fun w -> ignore (insert t ~key:[| vs w |] ~payload:w)) words;
  let got = ref [] in
  Btree.iter t (fun _ p -> got := p :: !got);
  Alcotest.(check (list string)) "sorted strings"
    (List.sort String.compare words)
    (List.rev !got)

(* Under a 4-frame pool every operation evicts and reloads pages; contents
   and invariants must survive the churn. *)
let test_tiny_pool_stress () =
  let d = Disk.in_memory () in
  let bp = Buffer_pool.create ~capacity:4 d in
  let t = Btree.create bp in
  let n = 2000 in
  for i = 0 to n - 1 do
    let key = (i * 7919) mod n in
    ignore (insert t ~key:(k key) ~payload:(string_of_int key))
  done;
  for i = 0 to (n / 2) - 1 do
    ignore (delete t ~key:(k (i * 2)))
  done;
  (match Btree.check_invariants t with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "count under eviction" (n / 2) (Btree.count t);
  for i = 0 to n - 1 do
    let expect = if i mod 2 = 0 then None else Some (string_of_int i) in
    if i mod 37 = 0 || i mod 37 = 1 then
      Alcotest.(check (option string)) (Fmt.str "probe %d" i) expect
        (Btree.find t ~key:(k i))
  done;
  Alcotest.(check bool) "pages really evicted" true
    ((Disk.stats d).Io_stats.page_writes > 100)

(* ---- logged changes ---- *)

(* [set] with the change it logged, if any. *)
let set_logged t ~key f =
  let logged = ref [] in
  let before = Btree.set t ~key ~log:(fun c -> logged := c :: !logged) f in
  match !logged with
  | [] -> (before, None)
  | [ c ] -> (before, Some c)
  | _ -> Alcotest.fail "set logged more than one change"

let test_undo_skips_unapplied () =
  let t, bp = make_tree_bp () in
  ignore (insert t ~key:(k 1) ~payload:"a");
  (* the log raises before the page write: the change never reaches the
     tree *)
  let exception Crash of string in
  let change =
    match
      Btree.set t ~key:(k 1) ~log:(fun c -> raise (Crash c)) (fun _ ->
          Some "b")
    with
    | _ -> Alcotest.fail "log not called"
    | exception Crash c -> c
  in
  Alcotest.(check (option string)) "tree untouched" (Some "a")
    (Btree.find t ~key:(k 1));
  Alcotest.(check bool) "undo skips" true (Btree.undo bp change = None);
  Alcotest.(check (option string)) "before-image not forced" (Some "a")
    (Btree.find t ~key:(k 1));
  (* an after-image since overwritten is not reversed either *)
  let _, change = set_logged t ~key:(k 2) (fun _ -> Some "x") in
  ignore (replace t ~key:(k 2) ~payload:"y");
  Alcotest.(check bool) "undo skips overwritten" true
    (Btree.undo bp (Option.get change) = None);
  Alcotest.(check (option string)) "newer payload kept" (Some "y")
    (Btree.find t ~key:(k 2))

let test_undo_twice () =
  let t, bp = make_tree_bp () in
  let undo c = Btree.undo bp c in
  let _, ins = set_logged t ~key:(k 1) (fun _ -> Some "a") in
  let _, upd = set_logged t ~key:(k 1) (fun _ -> Some "b") in
  let _, del = set_logged t ~key:(k 1) (fun _ -> None) in
  List.iter
    (fun (what, c, expect) ->
      let c = Option.get c in
      Alcotest.(check bool) (what ^ " reversed") true (undo c <> None);
      Alcotest.(check (option string)) what expect (Btree.find t ~key:(k 1));
      Alcotest.(check bool) (what ^ " again: no-op") true (undo c = None);
      Alcotest.(check (option string)) (what ^ " again") expect
        (Btree.find t ~key:(k 1)))
    [
      ("delete", del, Some "b");
      ("update", upd, Some "a");
      ("insert", ins, None);
    ];
  match Btree.check_invariants t with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_set_unchanged_logs_nothing () =
  let t, bp = make_tree_bp () in
  ignore (insert t ~key:(k 1) ~payload:"a");
  let writes () = (Disk.stats (Buffer_pool.disk bp)).Io_stats.page_writes in
  ignore (Buffer_pool.flush_all bp);
  let w0 = writes () in
  List.iter
    (fun (what, key, f) ->
      let _, change = set_logged t ~key f in
      Alcotest.(check bool) (what ^ ": nothing logged") true (change = None))
    [
      ("same payload", k 1, fun _ -> Some "a");
      ("if_absent on present", k 1, Btree.if_absent "z");
      ("delete absent", k 2, fun _ -> None);
      ("identity", k 1, Fun.id);
    ];
  ignore (Buffer_pool.flush_all bp);
  Alcotest.(check int) "nothing written" w0 (writes ());
  Alcotest.(check (option string)) "payload kept" (Some "a")
    (Btree.find t ~key:(k 1))

(* Differential: [set], [insert_batch] (with and without a unique prefix),
   [undo] of any change logged so far, and cursor steps ([next],
   [next_run], [position]/[seek]) on two open cursors, against a [Map] with
   the same state-checked undo, under a small pool and payloads large
   enough to split leaves and internal nodes. *)

(* A cursor bound over the 2-column keys [wide_key i]: its value array and
   where it falls on a doubled number line ([2i] is key [i]), so the model
   admits keys with integer compares. *)
type shape =
  | Prefix of int  (* [| i |]: compares equal to every key [i] *)
  | Exact of int  (* the full key [i] *)
  | Below of int  (* [| i; "" |]: just below key [i] *)
  | Above of int  (* [| i; K ^ "~" |]: just above key [i] *)
  | Lowest  (* [| Null |]: below every key *)
  | Highest  (* [| "z" |]: strings rank above every int key *)

type bnd = Unb | Inc of shape | Exc of shape

type op =
  | Set of int * int option  (* key, payload length or delete *)
  | Batch of (int * int) list * bool  (* entries, unique prefix *)
  | Undo of int  (* index into the changes logged so far *)
  | Open of int * bnd * bnd  (* cursor slot, lo, hi *)
  | Next of int
  | Run of int
  | Capture of int
  | Seek of int * int  (* cursor slot, index into its captured positions *)

let pp_shape ppf = function
  | Prefix i -> Fmt.pf ppf "[%d]" i
  | Exact i -> Fmt.pf ppf "[%d;K]" i
  | Below i -> Fmt.pf ppf "[%d;\"\"]" i
  | Above i -> Fmt.pf ppf "[%d;K~]" i
  | Lowest -> Fmt.string ppf "[NULL]"
  | Highest -> Fmt.string ppf "[\"z\"]"

let pp_bnd ppf = function
  | Unb -> Fmt.string ppf "_"
  | Inc s -> Fmt.pf ppf "Incl%a" pp_shape s
  | Exc s -> Fmt.pf ppf "Excl%a" pp_shape s

let pp_op ppf = function
  | Set (i, p) -> Fmt.pf ppf "Set(%d,%a)" i Fmt.(option ~none:(any "del") int) p
  | Batch (es, u) ->
    Fmt.pf ppf "Batch(%a,%b)"
      Fmt.(list ~sep:comma (pair ~sep:(any ":") int int))
      es u
  | Undo j -> Fmt.pf ppf "Undo %d" j
  | Open (s, lo, hi) -> Fmt.pf ppf "Open%d(%a,%a)" s pp_bnd lo pp_bnd hi
  | Next s -> Fmt.pf ppf "Next%d" s
  | Run s -> Fmt.pf ppf "Run%d" s
  | Capture s -> Fmt.pf ppf "Capture%d" s
  | Seek (s, j) -> Fmt.pf ppf "Seek%d(%d)" s j

let gen_op =
  let open QCheck.Gen in
  let key = int_range 0 60 and len = int_range 1 700 in
  let slot = int_range 0 1 in
  let shape =
    frequency
      [
        (3, map (fun i -> Prefix i) key);
        (3, map (fun i -> Exact i) key);
        (2, map (fun i -> Below i) key);
        (2, map (fun i -> Above i) key);
        (1, pure Lowest);
        (1, pure Highest);
      ]
  in
  let bnd =
    frequency
      [
        (1, pure Unb);
        (2, map (fun s -> Inc s) shape);
        (2, map (fun s -> Exc s) shape);
      ]
  in
  frequency
    [
      (5, map2 (fun i p -> Set (i, p)) key (opt ~ratio:0.8 len));
      ( 2,
        map2
          (fun es u -> Batch (es, u))
          (list_size (int_range 1 12) (pair key len))
          bool );
      (3, map (fun j -> Undo j) (int_range 0 1000));
      (1, map3 (fun s lo hi -> Open (s, lo, hi)) slot bnd bnd);
      (3, map (fun s -> Next s) slot);
      (2, map (fun s -> Run s) slot);
      (1, map (fun s -> Capture s) slot);
      (1, map2 (fun s j -> Seek (s, j)) slot (int_range 0 100));
    ]

let payload i len =
  String.make len (Char.chr (97 + (i mod 26))) ^ string_of_int len

(* wide keys make separators large enough to split internal nodes too *)
let wide_tail = String.make 600 'k'
let wide_key i = [| vi i; vs wide_tail |]

let shape_key = function
  | Prefix i -> [| vi i |]
  | Exact i -> wide_key i
  | Below i -> [| vi i; vs "" |]
  | Above i -> [| vi i; vs (wide_tail ^ "~") |]
  | Lowest -> [| Value.Null |]
  | Highest -> [| vs "z" |]

let shape_pos = function
  | Prefix i | Exact i -> 2 * i
  | Below i -> (2 * i) - 1
  | Above i -> (2 * i) + 1
  | Lowest -> min_int
  | Highest -> max_int

let tree_bound = function
  | Unb -> Btree.Unbounded
  | Inc s -> Btree.Incl (shape_key s)
  | Exc s -> Btree.Excl (shape_key s)

let lo_admits b i =
  match b with
  | Unb -> true
  | Inc s -> 2 * i >= shape_pos s
  | Exc s -> 2 * i > shape_pos s

let hi_admits b i =
  match b with
  | Unb -> true
  | Inc s -> 2 * i <= shape_pos s
  | Exc s -> 2 * i < shape_pos s

(* The model of one cursor: its bounds, the key it is on, whether it has
   run off its window, and the positions captured from it. *)
type mcursor = {
  lo : bnd;
  hi : bnd;
  mutable last : int option;
  mutable finished : bool;
  mutable captured : int option list;
}

let int_key key = Int64.to_int (Option.get (Value.to_int key.(0)))

module Imap = Map.Make (Int)

(* Run [ops] over tree [t] and a model holding [init] (what [t] holds, by
   [wide_key] index), checking every step against the model; whether the
   tree ends holding the model's bindings. *)
let agrees_with_model bp t init ops =
  let module M = Imap in
  let model = ref init in
  let bind i = function
    | Some p -> model := M.add i p !model
    | None -> model := M.remove i !model
  in
  (* every change logged so far, with the (key, before, after) the
     model expects it to encode *)
  let changes = ref [||] in
  let fail fmt = Fmt.kstr QCheck.Test.fail_report fmt in
  let open_cursor lo hi =
    ( Btree.cursor ~lo:(tree_bound lo) ~hi:(tree_bound hi) t,
      { lo; hi; last = None; finished = false; captured = [ None ] } )
  in
  let cursors = Array.init 2 (fun _ -> open_cursor Unb Unb) in
  (* the in-window entries after the model cursor's position *)
  let remaining m =
    M.bindings !model
    |> List.filter (fun (i, _) ->
           match m.last with Some l -> i > l | None -> lo_admits m.lo i)
    |> List.filter (fun (i, _) -> hi_admits m.hi i)
  in
  (* the first entry after the position, whatever [hi] says: the
     cursor finishes when it falls outside the window *)
  let first_after m =
    M.bindings !model
    |> List.find_opt (fun (i, _) ->
           match m.last with Some l -> i > l | None -> lo_admits m.lo i)
  in
  let expect_next s c m =
    match Btree.next c, (if m.finished then None else first_after m) with
    | None, None -> m.finished <- true
    | None, Some (i, _) when not (hi_admits m.hi i) -> m.finished <- true
    | Some (key, p), Some (i, p') when hi_admits m.hi i ->
      if int_key key <> i || p <> p' then
        fail "next%d: got %d, expected %d" s (int_key key) i;
      m.last <- Some i
    | got, _ ->
      fail "next%d: got %a" s
        Fmt.(option ~none:(any "end") int)
        (Option.map (fun (key, _) -> int_key key) got)
  in
  List.iter
    (fun op ->
      let logged = ref [] in
      let log c = logged := c :: !logged in
      (match op with
      | Set (i, len) ->
        let after = Option.map (payload i) len in
        let before = Btree.set t ~key:(wide_key i) ~log (fun _ -> after) in
        if before <> M.find_opt i !model then fail "set %d: before" i;
        let expect =
          if before = after then [] else [ (i, before, after) ]
        in
        if List.length !logged <> List.length expect then
          fail "set %d: logged %d" i (List.length !logged);
        changes :=
          Array.append !changes
            (Array.of_list (List.combine !logged expect));
        bind i after
      | Batch (es, unique) ->
        let es = List.sort_uniq (fun (a, _) (b, _) -> Int.compare a b) es in
        let r =
          Btree.insert_batch
            ?unique_prefix:(if unique then Some 1 else None)
            t
            ~log:(List.iter log)
            (Array.of_list
               (List.map (fun (i, l) -> (wide_key i, payload i l)) es))
        in
        (* the model: apply in order, skipping present keys, or halting
           at the first one under a unique prefix *)
        let rec apply j applied = function
          | [] -> (Ok (), applied)
          | (i, l) :: rest ->
            if M.mem i !model then
              if unique then (Error j, applied)
              else apply (j + 1) applied rest
            else begin
              bind i (Some (payload i l));
              apply (j + 1) ((i, None, Some (payload i l)) :: applied) rest
            end
        in
        let expect, applied = apply 0 [] es in
        if r <> expect then fail "batch: result";
        if List.length !logged <> List.length applied then
          fail "batch: logged %d, applied %d" (List.length !logged)
            (List.length applied);
        changes :=
          Array.append !changes
            (Array.of_list (List.rev (List.combine !logged applied)))
      | Undo j ->
        let n = Array.length !changes in
        if n > 0 then begin
          let data, (i, before, after) = !changes.(j mod n) in
          let expect = M.find_opt i !model = after in
          match Btree.undo bp data, expect with
          | None, false -> ()
          | Some c, true ->
            if (c.Image.before, c.Image.after) <> (before, after) then
              fail "undo %d: change decoded differently" i;
            bind i before
          | got, _ -> fail "undo %d: reversed %b" i (got <> None)
        end
      | Open (s, lo, hi) -> cursors.(s) <- open_cursor lo hi
      | Next s ->
        let c, m = cursors.(s) in
        expect_next s c m
      | Run s -> (
        let c, m = cursors.(s) in
        let window = if m.finished then [] else remaining m in
        match Btree.next_run c, window with
        | None, [] -> m.finished <- true
        | Some run, _ :: _ ->
          let got =
            Array.to_list run |> List.map (fun (k, p) -> (int_key k, p))
          in
          let n = List.length got in
          if n > List.length window
             || got <> List.filteri (fun j _ -> j < n) window
          then fail "run%d: not a prefix of the window" s;
          m.last <- Some (fst (List.nth got (n - 1)));
          (* a run that took the whole window may or may not have seen
             the window close; a further step settles it *)
          if n = List.length window then expect_next s c m
        | got, _ ->
          fail "run%d: got %d entries, window %d" s
            (match got with Some r -> Array.length r | None -> 0)
            (List.length window))
      | Capture s ->
        let c, m = cursors.(s) in
        if Btree.position c <> Option.map wide_key m.last then
          fail "capture%d: position" s;
        m.captured <- m.captured @ [ m.last ]
      | Seek (s, j) ->
        let c, m = cursors.(s) in
        let pos = List.nth m.captured (j mod List.length m.captured) in
        Btree.seek c (Option.map wide_key pos);
        m.last <- pos;
        m.finished <- false);
      match Btree.check_invariants t with
      | Ok () -> ()
      | Error e -> fail "%a: %s" pp_op op e)
    ops;
  let tree_list = ref [] in
  Btree.iter t (fun key p -> tree_list := (int_key key, p) :: !tree_list);
  List.rev !tree_list = M.bindings !model

let pp_ops = Fmt.(list ~sep:semi pp_op)

let prop_model =
  QCheck.Test.make ~name:"btree matches Map model" ~count:80
    (QCheck.make ~print:(Fmt.str "%a" pp_ops)
       QCheck.Gen.(list_size (int_range 1 80) gen_op))
    (fun ops ->
      let bp = Buffer_pool.create ~capacity:4 (Disk.in_memory ()) in
      agrees_with_model bp (Btree.create bp) Imap.empty ops)

let contents t =
  let acc = ref [] in
  Btree.iter t (fun k p -> acc := (k, p) :: !acc);
  List.rev !acc

(* [build] over sorted distinct entries holds what per-row [set] holds, in
   a valid tree, and the built tree then follows the model through random
   changes, batches, undos and cursors. Wide keys make builds of a few
   dozen entries three levels deep. *)
let prop_build =
  QCheck.Test.make ~name:"build = per-row set, then matches Map model"
    ~count:60
    (QCheck.make
       ~print:(fun (init, ops) ->
         Fmt.str "init %a; ops %a"
           Fmt.(list ~sep:comma (pair ~sep:(any ":") int int))
           init pp_ops ops)
       QCheck.Gen.(
         pair
           (list_size (int_range 0 60)
              (pair (int_range 0 60) (int_range 1 700)))
           (list_size (int_range 0 40) gen_op)))
    (fun (init, ops) ->
      let init = List.sort_uniq (fun (a, _) (b, _) -> Int.compare a b) init in
      let entries =
        Array.of_list (List.map (fun (i, l) -> (wide_key i, payload i l)) init)
      in
      let bp = Buffer_pool.create ~capacity:4 (Disk.in_memory ()) in
      let built = Btree.create bp and by_set = Btree.create bp in
      Btree.build built entries;
      Array.iter (fun (key, payload) -> ignore (insert by_set ~key ~payload))
        entries;
      (match Btree.check_invariants built with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "built tree: %s" e);
      if contents built <> contents by_set then
        QCheck.Test.fail_report "built tree differs from per-row set";
      let model =
        List.fold_left
          (fun m (i, l) -> Imap.add i (payload i l) m)
          Imap.empty init
      in
      agrees_with_model bp built model ops)

(* A built tree of [entries], checked against one [set] builds. *)
let check_build what entries =
  let bp = Buffer_pool.create ~capacity:128 (Disk.in_memory ()) in
  let built = Btree.create bp and by_set = Btree.create bp in
  Btree.build built entries;
  Array.iter (fun (key, payload) -> ignore (insert by_set ~key ~payload))
    entries;
  (match Btree.check_invariants built with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" what e);
  Alcotest.(check int) (what ^ ": count") (Array.length entries)
    (Btree.count built);
  Alcotest.(check bool) (what ^ ": same entries as set") true
    (contents built = contents by_set);
  Array.iter
    (fun (key, payload) ->
      Alcotest.(check (option string)) (what ^ ": find") (Some payload)
        (Btree.find built ~key))
    entries;
  built

let test_build_edges () =
  let entry i = (k i, String.make 40 'p') in
  let empty = check_build "0 entries" [||] in
  Alcotest.(check int) "0 entries: height" 1 (Btree.height empty);
  ignore (insert empty ~key:(k 1) ~payload:"x");
  Alcotest.(check (option string)) "0 entries: then set" (Some "x")
    (Btree.find empty ~key:(k 1));
  Alcotest.(check int) "1 entry: height" 1
    (Btree.height (check_build "1 entry" [| entry 0 |]));
  (* the most entries one leaf holds: per-row set splits at the next *)
  let t = make_tree () in
  let full = ref 0 in
  while Btree.height t = 1 do
    ignore (insert t ~key:(fst (entry !full)) ~payload:(snd (entry !full)));
    incr full
  done;
  let full = !full - 1 in
  Alcotest.(check int) "one full leaf: height" 1
    (Btree.height (check_build "one full leaf" (Array.init full entry)));
  Alcotest.(check int) "one full leaf + 1: height" 2
    (Btree.height
       (check_build "one full leaf + 1" (Array.init (full + 1) entry)));
  (* keys of ~1 KB: three to a node, so 40 entries need three levels *)
  let big i = ([| vi i; vs (String.make 1000 'k') |], string_of_int i) in
  Alcotest.(check int) "large keys: height" 3
    (Btree.height (check_build "large keys" (Array.init 40 big)))

let test_build_refuses () =
  let refused what entries =
    let t = make_tree () in
    match Btree.build t entries with
    | () -> Alcotest.failf "%s: built" what
    | exception Invalid_argument _ ->
      Alcotest.(check int) (what ^ ": tree left empty") 0 (Btree.count t)
  in
  refused "unsorted" [| (k 2, "b"); (k 1, "a") |];
  refused "duplicate" [| (k 1, "a"); (k 2, "b"); (k 2, "c") |];
  let t = make_tree () in
  ignore (insert t ~key:(k 5) ~payload:"held");
  match Btree.build t [| (k 1, "a") |] with
  | () -> Alcotest.fail "built into a non-empty tree"
  | exception Invalid_argument _ ->
    Alcotest.(check bool) "non-empty tree unchanged" true
      (contents t = [ (k 5, "held") ])

(* A build writes each page of the tree once: through a 4-frame pool,
   per-row [set] writes pages back many times over. *)
let test_build_writes_once () =
  let writes build =
    let d = Disk.in_memory () in
    let bp = Buffer_pool.create ~capacity:4 d in
    let t = Btree.create bp in
    ignore (Buffer_pool.flush_all bp);
    let s = Disk.stats d in
    let before = s.Io_stats.page_writes in
    build t (Array.init 3000 (fun i -> (k i, String.make 30 'p')));
    ignore (Buffer_pool.flush_all bp);
    (s.Io_stats.page_writes - before, Disk.page_count d)
  in
  let built, pages = writes Btree.build in
  Alcotest.(check int) "one write per page" pages built;
  let by_set, _ =
    writes (fun t -> Array.iter (fun (key, payload) ->
        ignore (insert t ~key ~payload)))
  in
  Alcotest.(check bool)
    (Fmt.str "per-row set writes more (%d vs %d)" by_set built)
    true (by_set > built)

(* The in-frame key compare is [compare_full]/[compare_prefix] on the
   encoded key, over random arities; values come from a small pool so keys
   often share prefixes. *)
let prop_compare_encoded =
  let open QCheck.Gen in
  let pool = list_repeat 6 Test_value.gen_value in
  let gen =
    pool >>= fun pool ->
    let key = array_size (int_range 0 4) (oneofl pool) in
    pair key key
  in
  let print (a, b) =
    let key k = Fmt.str "[%a]" Fmt.(array ~sep:semi Value.pp) k in
    key a ^ " vs " ^ key b
  in
  QCheck.Test.make ~name:"in-frame key compare agrees with the key order"
    ~count:2000 (QCheck.make ~print gen) (fun (a, b) ->
      let encoded = Bytes.to_string (Codec.encode_record a) ^ "\xaa" in
      List.for_all
        (fun (prefix, compare) ->
          let d = Codec.Dec.of_string encoded in
          Test_value.sign (Btree.compare_encoded ~prefix d b)
          = Test_value.sign (compare a b)
          && Codec.Dec.remaining d = 1)
        [ (false, Btree.compare_full); (true, Btree.compare_prefix) ])

(* A point lookup on a 20,000-entry tree of [btree_index] entries (index
   key, then the encoded record key) pins the root and the leaf, and a
   cursor one more leaf visit to see its window close. *)
let test_point_lookup_pins () =
  let d = Disk.in_memory () in
  let bp = Buffer_pool.create ~capacity:512 d in
  let t = Btree.create bp in
  let n = 20_000 in
  let reckey i =
    Record_key.rid ~page:(1 + (i / 50)) ~slot:(i mod 50)
    |> Record_key.encode |> Bytes.to_string
  in
  let entry i = ([| vi i; vs (reckey i) |], reckey i) in
  let entries = Array.init n (fun i -> entry (i + 1)) in
  (match Btree.insert_batch t ~log:ignore entries with
  | Ok () -> ()
  | Error j -> Alcotest.failf "batch halted at %d" j);
  Alcotest.(check int) "height" 2 (Btree.height t);
  let pins f =
    let s = Disk.stats d in
    let before = s.Io_stats.pool_hits + s.Io_stats.pool_misses in
    let r = f () in
    (r, s.Io_stats.pool_hits + s.Io_stats.pool_misses - before)
  in
  List.iter
    (fun i ->
      let c =
        Btree.cursor ~lo:(Btree.Incl [| vi i |]) ~hi:(Btree.Incl [| vi i |]) t
      in
      let got, cursor_pins =
        pins (fun () ->
            let first = Btree.next c in
            (first, Btree.next c))
      in
      Alcotest.(check bool) (Fmt.str "cursor %d" i) true
        (match got with Some (_, p), None -> p = reckey i | _ -> false);
      Alcotest.(check int) (Fmt.str "cursor %d pins" i) 3 cursor_pins;
      let found, find_pins =
        pins (fun () -> Btree.find t ~key:(fst (entry i)))
      in
      Alcotest.(check (option string))
        (Fmt.str "find %d" i) (Some (reckey i)) found;
      Alcotest.(check int) (Fmt.str "find %d pins" i) 2 find_pins)
    [ 1; 97; 5_000; 12_345; n ]

(* Node-format golden: a deterministic tree of 2,000 keys of mixed arity
   and type, built in seeded random order through [set] and [insert_batch]
   with updates and deletes, must leave exactly the recorded page images.
   The digest pins the on-disk node format, and with it how many entries a
   page holds. *)
let golden_key j =
  match j mod 5 with
  | 0 -> [| vi j |]
  | 1 -> [| vs (Fmt.str "k%05d" j); vi j |]
  | 2 -> [| vf (float_of_int j /. 3.); vb (j mod 2 = 0); vi j |]
  | 3 -> [| Value.Null; vi j |]
  | _ -> [| vi (j / 7); vs (String.make (j mod 13) '\xff'); vi j |]

let golden_payload j =
  String.make (j mod 50) (Char.chr (j mod 256)) ^ string_of_int j

let test_node_format_golden () =
  let d = Disk.in_memory () in
  let bp = Buffer_pool.create ~capacity:16 d in
  let t = Btree.create bp in
  let n = 2000 in
  let perm = Array.init n Fun.id in
  let st = Random.State.make [| 20 |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let tmp = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- tmp
  done;
  (* alternate chunks of 25: one through [set], the next as a sorted batch *)
  for c = 0 to (n / 25) - 1 do
    let chunk = Array.sub perm (c * 25) 25 in
    if c mod 2 = 0 then
      Array.iter
        (fun j ->
          ignore (insert t ~key:(golden_key j) ~payload:(golden_payload j)))
        chunk
    else begin
      let entries =
        Array.map (fun j -> (golden_key j, golden_payload j)) chunk
      in
      Array.sort (fun (a, _) (b, _) -> Btree.compare_full a b) entries;
      match Btree.insert_batch t ~log:ignore entries with
      | Ok () -> ()
      | Error j -> Alcotest.failf "batch halted at %d" j
    end
  done;
  Array.iteri
    (fun i j ->
      if i mod 7 = 0 then ignore (delete t ~key:(golden_key j))
      else if i mod 11 = 0 then
        ignore
          (replace t ~key:(golden_key j) ~payload:(golden_payload (j + 1))))
    perm;
  (match Btree.check_invariants t with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "count" (n - ((n + 6) / 7)) (Btree.count t);
  ignore (Buffer_pool.flush_all bp);
  let pages = Disk.page_count d in
  let images =
    List.init pages (fun i ->
        Digest.to_hex (Digest.bytes (Disk.read d (i + 1))))
  in
  Alcotest.(check (pair int string))
    "page images" (36, "3729dbaee08c5ebd27f28daf3ca75a39")
    (pages, Digest.to_hex (Digest.string (String.concat "" images)))

(* ---- node pages ---- *)

(* Differential of the in-frame searches against a linear reference over
   the decoded entries. A tree of uniform arity (1 to 3) over a small value
   pool, so keys share prefixes, with values long enough to split leaves
   and internal nodes, goes through [set], deletes and [insert_batch];
   then [find], [prefix_present], cursors ([Incl]/[Excl]/prefix bounds,
   [next], [next_run], [seek]) and [window] must answer what a linear pass
   over the decoded pages answers, and every page must re-encode to its own
   bytes. Keys and bounds are arrays of indices into [node_pool]. *)
let node_pool =
  [| vi 0; vi 1; vi 2; vi 3; vs ""; vs "x"; vs (String.make 300 'q');
     vs (String.make 301 'q') |]

type node_op =
  | N_set of int array * int  (* key, payload length *)
  | N_delete of int array
  | N_batch of (int array * int) list

(* a cursor's bounds ([None]: unbounded; [true]: inclusive) and a key *)
type probe = {
  lo : int array option * bool;
  hi : int array option * bool;
  at : int array;
}

let node_key ix = Array.map (fun j -> node_pool.(j)) ix

let gen_node_case =
  let open QCheck.Gen in
  int_range 1 3 >>= fun arity ->
  let value = int_range 0 (Array.length node_pool - 1) in
  let key = array_size (pure arity) value in
  let part = int_range 0 arity >>= fun n -> array_size (pure n) value in
  let len = int_range 0 600 in
  let op =
    frequency
      [
        (6, map2 (fun k l -> N_set (k, l)) key len);
        (2, map (fun k -> N_delete k) key);
        ( 1,
          map
            (fun es -> N_batch es)
            (list_size (int_range 1 20) (pair key len)) );
      ]
  in
  let bnd = pair (opt part) bool in
  let probe = map3 (fun lo hi at -> { lo; hi; at }) bnd bnd key in
  triple (pure arity)
    (list_size (int_range 20 200) op)
    (list_size (pure 12) probe)

let print_node_case (arity, ops, probes) =
  let ix = Fmt.(array ~sep:(any ".") int) in
  let pp_op ppf = function
    | N_set (k, l) -> Fmt.pf ppf "set %a:%d" ix k l
    | N_delete k -> Fmt.pf ppf "del %a" ix k
    | N_batch es ->
      Fmt.pf ppf "batch %a"
        Fmt.(list ~sep:comma (pair ~sep:(any ":") ix int))
        es
  in
  let pp_b ppf (b, incl) =
    match b with
    | None -> Fmt.string ppf "_"
    | Some k -> Fmt.pf ppf "%s%a" (if incl then "I" else "E") ix k
  in
  let pp_probe ppf p = Fmt.pf ppf "[%a,%a]@%a" pp_b p.lo pp_b p.hi ix p.at in
  Fmt.str "arity %d; %a; probes %a" arity
    Fmt.(list ~sep:semi pp_op)
    ops
    Fmt.(list ~sep:semi pp_probe)
    probes

let node_payload len = String.make len 'p'

(* Every node page reachable from the root: its id, node and image, read
   through raw frames. *)
let node_pages bp root =
  let read page_id =
    Buffer_pool.with_page bp page_id (fun f ->
        let data = f.Buffer_pool.data in
        (Btree.decode_page ~page_id data, Bytes.copy data))
  in
  let rec walk page_id =
    let node, img = read page_id in
    (page_id, node, img)
    ::
    (match node with
    | Btree.Leaf _ -> []
    | Btree.Internal { children; _ } -> List.concat_map walk children)
  in
  walk root

let prop_node_search =
  QCheck.Test.make
    ~name:"in-frame searches = linear reference over decoded nodes"
    ~count:60
    (QCheck.make ~print:print_node_case gen_node_case)
    (fun (_, ops, probes) ->
      let fail fmt = Fmt.kstr QCheck.Test.fail_report fmt in
      let bp = Buffer_pool.create ~capacity:8 (Disk.in_memory ()) in
      let t = Btree.create bp in
      let set k after =
        ignore (Btree.set t ~key:(node_key k) ~log:ignore after)
      in
      List.iter
        (function
          | N_set (k, l) -> set k (fun _ -> Some (node_payload l))
          | N_delete k -> set k (fun _ -> None)
          | N_batch es ->
            let es =
              List.map (fun (k, l) -> (node_key k, node_payload l)) es
              |> List.sort_uniq (fun (a, _) (b, _) -> Btree.compare_full a b)
            in
            ignore (Btree.insert_batch t ~log:ignore (Array.of_list es)))
        ops;
      (match Btree.check_invariants t with
      | Ok () -> ()
      | Error e -> fail "invariants: %s" e);
      let pages = node_pages bp (Btree.root t) in
      (* encode (decode page) = page, byte for byte *)
      List.iter
        (fun (page_id, node, img) ->
          let again = Bytes.copy img in
          Btree.encode_page again node;
          if not (Bytes.equal again img) then
            fail "page %d does not re-encode to itself" page_id)
        pages;
      (* the reference: the leaves' entries in chain order *)
      let node_of = List.map (fun (id, node, _) -> (id, node)) pages in
      let rec leftmost id =
        match List.assoc id node_of with
        | Btree.Internal { children; _ } -> leftmost (List.hd children)
        | Btree.Leaf _ -> id
      in
      let rec chain id =
        if id = 0 then []
        else
          match List.assoc id node_of with
          | Btree.Leaf { entries; next } -> entries @ chain next
          | Btree.Internal _ -> fail "chain hit internal page %d" id
      in
      let entries = chain (leftmost (Btree.root t)) in
      let keys = List.map fst entries in
      let bound (b, incl) =
        match b with
        | None -> Btree.Unbounded
        | Some k ->
          if incl then Btree.Incl (node_key k) else Btree.Excl (node_key k)
      in
      let drain step =
        let rec go acc =
          match step () with
          | Some es -> go (List.rev_append es acc)
          | None -> List.rev acc
        in
        go []
      in
      List.iter
        (fun { lo; hi; at } ->
          let at = node_key at in
          let expect =
            List.find_map
              (fun (k, p) ->
                if Btree.compare_full k at = 0 then Some p else None)
              entries
          in
          if Btree.find t ~key:at <> expect then fail "find";
          for n = 0 to Array.length at do
            let p = Array.sub at 0 n in
            let held =
              List.exists (fun k -> Btree.compare_prefix k p = 0) keys
            in
            if Btree.prefix_present t p <> held then
              fail "prefix_present (%d values)" n
          done;
          let admits k =
            let c b = Btree.compare_prefix k b in
            (match bound lo with
            | Btree.Incl b -> c b >= 0
            | Btree.Excl b -> c b > 0
            | Btree.Unbounded -> true)
            &&
            match bound hi with
            | Btree.Incl b -> c b <= 0
            | Btree.Excl b -> c b < 0
            | Btree.Unbounded -> true
          in
          let in_window = List.filter (fun (k, _) -> admits k) entries in
          let cursor () = Btree.cursor ~lo:(bound lo) ~hi:(bound hi) t in
          let by_next c =
            drain (fun () -> Option.map (fun e -> [ e ]) (Btree.next c))
          in
          let by_run c =
            drain (fun () -> Option.map Array.to_list (Btree.next_run c))
          in
          if by_next (cursor ()) <> in_window then fail "cursor next";
          if by_run (cursor ()) <> in_window then fail "cursor next_run";
          (* seek back to a position captured halfway *)
          let c = cursor () in
          let half = List.length in_window / 2 in
          for _ = 1 to half do
            ignore (Btree.next c)
          done;
          let pos = Btree.position c in
          ignore (by_next c);
          Btree.seek c pos;
          if by_next c <> List.filteri (fun i _ -> i >= half) in_window then
            fail "seek";
          (* the nearest separators around the leaf covering [at], by a
             linear pass over each decoded internal node *)
          let rec ref_window id lo hi =
            match List.assoc id node_of with
            | Btree.Leaf _ -> (lo, hi)
            | Btree.Internal { seps; children } ->
              let i =
                List.length
                  (List.filter (fun s -> Btree.compare_full s at <= 0) seps)
              in
              let lo = if i > 0 then Some (List.nth seps (i - 1)) else lo in
              let hi =
                if i < List.length seps then Some (List.nth seps i) else hi
              in
              ref_window (List.nth children i) lo hi
          in
          if Btree.window t at <> ref_window (Btree.root t) None None then
            fail "window")
        probes;
      true)

(* A malformed node is refused by name: an offset outside the content
   area, a content end below the offsets, an old-format tag. *)
let test_corrupt_node () =
  let t, bp = make_tree_bp () in
  for i = 1 to 5 do
    ignore (insert t ~key:(k i) ~payload:(string_of_int i))
  done;
  let root = Btree.root t in
  let refused what corrupt =
    let saved =
      Buffer_pool.with_page bp root (fun f -> Bytes.copy f.Buffer_pool.data)
    in
    Buffer_pool.with_page_mut bp root (fun f -> corrupt f.Buffer_pool.data);
    (match Btree.find t ~key:(k 3) with
    | _ -> Alcotest.failf "%s: read" what
    | exception Failure msg ->
      let named = Fmt.str "Btree: page %d" root in
      Alcotest.(check string) (what ^ ": names the page") named
        (String.sub msg 0 (min (String.length msg) (String.length named))));
    Buffer_pool.with_page_mut bp root (fun f ->
        Bytes.blit saved 0 f.Buffer_pool.data 0 (Bytes.length saved))
  in
  (* entry 2's offset past the content area (probed by the binary search) *)
  refused "offset" (fun b -> Bytes.set_uint16_le b (9 + (2 * 2)) 0xfff0);
  refused "content end" (fun b -> Bytes.set_uint16_le b 3 4);
  refused "old leaf tag" (fun b -> Bytes.set_uint8 b 2 0);
  refused "old internal tag" (fun b -> Bytes.set_uint8 b 2 1);
  Alcotest.(check (option string)) "restored page reads" (Some "3")
    (Btree.find t ~key:(k 3))

(* A node's bytes are a prefix of its page: a write torn after the first
   half-page (the chaos harness's torn mode) still lands a node that fits
   in that half whole. *)
let test_torn_half_page () =
  let t, bp = make_tree_bp () in
  for i = 1 to 20 do
    ignore (insert t ~key:(k i) ~payload:(String.make 30 'a'))
  done;
  let root = Btree.root t in
  let image () =
    Buffer_pool.with_page bp root (fun f -> Bytes.copy f.Buffer_pool.data)
  in
  let before = image () in
  for i = 1 to 20 do
    ignore (replace t ~key:(k i) ~payload:(String.make 40 'b'))
  done;
  let after = image () in
  let half = Bytes.length after / 2 in
  let torn = Bytes.copy before in
  Bytes.blit after 0 torn 0 half;
  Alcotest.(check bool) "the node fits in half a page" true
    (Bytes.get_uint16_le after 3 <= half);
  Alcotest.(check bool) "the torn page holds the new node" true
    (Btree.decode_page ~page_id:root torn
    = Btree.decode_page ~page_id:root after)

(* An ascending load through [insert_batch] fills its leaves: the rightmost
   leaf splits at its edge, so the load takes within 5% of the pages a
   bottom-up [build] of the same entries takes. *)
let test_ascending_load_pages () =
  let n = 20_000 in
  let reckey i =
    Record_key.rid ~page:(1 + (i / 50)) ~slot:(i mod 50)
    |> Record_key.encode |> Bytes.to_string
  in
  let entries = Array.init n (fun i -> ([| vi i; vs (reckey i) |], "")) in
  let pages load =
    let d = Disk.in_memory () in
    let t = Btree.create (Buffer_pool.create ~capacity:64 d) in
    load t;
    Alcotest.(check int) "count" n (Btree.count t);
    Disk.page_count d
  in
  let built = pages (fun t -> Btree.build t entries) in
  let loaded =
    pages (fun t ->
        for b = 0 to (n / 100) - 1 do
          let batch = Array.sub entries (b * 100) 100 in
          match Btree.insert_batch t ~log:ignore batch with
          | Ok () -> ()
          | Error j -> Alcotest.failf "batch halted at %d" j
        done)
  in
  Alcotest.(check bool)
    (Fmt.str "ascending load %d pages, build %d (gate: <= 1.05x)" loaded built)
    true
    (float_of_int loaded <= 1.05 *. float_of_int built)

(* A leaf split cuts where the left half first reaches half the bytes. With
   a small entry first and a large one next, the cut before the large entry
   left the right half over a page ("node exceeds page size"). *)
let test_split_large_entries () =
  let bp = Buffer_pool.create ~capacity:8 (Disk.in_memory ()) in
  let t = Btree.create bp in
  let put k len =
    ignore
      (Btree.set t ~key:[| Value.String k |] ~log:ignore (fun _ ->
           Some (String.make len 'p')))
  in
  put "a" 490;
  put "b" 2190;
  put "d" 1290;
  put "c" 1390;
  (match Btree.check_invariants t with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let keys = ref [] in
  Btree.iter t (fun k _ ->
      keys := (match k with [| Value.String s |] -> s | _ -> "?") :: !keys);
  Alcotest.(check (list string)) "every key, in order" [ "a"; "b"; "c"; "d" ]
    (List.rev !keys)

let suite =
  [
    Alcotest.test_case "insert + find (500)" `Quick test_insert_find;
    Alcotest.test_case "tiny buffer pool stress" `Quick test_tiny_pool_stress;
    Alcotest.test_case "duplicates and replace" `Quick test_duplicate;
    Alcotest.test_case "delete half" `Quick test_delete;
    Alcotest.test_case "random insertion order (1000)" `Quick test_random_order;
    Alcotest.test_case "cursor ranges" `Quick test_cursor_range;
    Alcotest.test_case "cursor prefix bounds" `Quick test_cursor_prefix;
    Alcotest.test_case "cursor survives deletes" `Quick
      test_cursor_survives_delete;
    Alcotest.test_case "cursor capture/restore" `Quick
      test_cursor_capture_restore;
    Alcotest.test_case "large payloads split" `Quick test_large_payloads;
    Alcotest.test_case "string key order" `Quick test_string_keys_order;
    Alcotest.test_case "undo skips a change that never applied" `Quick
      test_undo_skips_unapplied;
    Alcotest.test_case "undo twice is a no-op" `Quick test_undo_twice;
    Alcotest.test_case "set that changes nothing logs nothing" `Quick
      test_set_unchanged_logs_nothing;
    Alcotest.test_case "node format golden" `Quick test_node_format_golden;
    Alcotest.test_case "point lookup pins root and leaf" `Quick
      test_point_lookup_pins;
    QCheck_alcotest.to_alcotest prop_compare_encoded;
    QCheck_alcotest.to_alcotest prop_model;
    Alcotest.test_case "build: empty, one entry, full leaf, three levels"
      `Quick test_build_edges;
    Alcotest.test_case "build refuses unsorted, repeated or non-empty"
      `Quick test_build_refuses;
    Alcotest.test_case "build writes each page once" `Quick
      test_build_writes_once;
    QCheck_alcotest.to_alcotest prop_build;
    QCheck_alcotest.to_alcotest prop_node_search;
    Alcotest.test_case "a malformed node is refused by name" `Quick
      test_corrupt_node;
    Alcotest.test_case "a torn write keeps a half-page node whole" `Quick
      test_torn_half_page;
    Alcotest.test_case "ascending load fills its pages" `Quick
      test_ascending_load_pages;
    Alcotest.test_case "a leaf split keeps both halves within a page" `Quick
      test_split_large_entries;
  ]
