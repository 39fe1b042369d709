open Dmx_page

let page () =
  let b = Bytes.make 512 '\xAA' in
  Slotted.init b;
  b

let test_slotted_basic () =
  let p = page () in
  Alcotest.(check int) "empty" 0 (Slotted.slot_count p);
  let s0 = Option.get (Slotted.insert p "hello") in
  let s1 = Option.get (Slotted.insert p "world!") in
  Alcotest.(check (option string)) "read 0" (Some "hello") (Slotted.read p s0);
  Alcotest.(check (option string)) "read 1" (Some "world!") (Slotted.read p s1);
  Alcotest.(check int) "live" 2 (Slotted.live_count p)

let test_slotted_delete_pending () =
  let p = page () in
  let s0 = Option.get (Slotted.insert p "aaa") in
  Alcotest.(check bool) "delete" true (Slotted.delete p s0);
  Alcotest.(check bool) "double delete" false (Slotted.delete p s0);
  Alcotest.(check (option string)) "tombstone" None (Slotted.read p s0);
  (* pending tombstones are not reused *)
  let s1 = Option.get (Slotted.insert p "bbb") in
  Alcotest.(check bool) "no reuse while pending" true (s1 <> s0);
  (* released tombstones are reused *)
  Slotted.make_reusable p s0;
  let s2 = Option.get (Slotted.insert p "ccc") in
  Alcotest.(check int) "reuse released slot" s0 s2

let test_slotted_insert_at () =
  let p = page () in
  let s0 = Option.get (Slotted.insert p "payload") in
  ignore (Slotted.delete p s0);
  Alcotest.(check bool) "reinstate" true (Slotted.insert_at p s0 "payload");
  Alcotest.(check (option string)) "back" (Some "payload") (Slotted.read p s0);
  Alcotest.(check bool) "occupied refuses" false (Slotted.insert_at p s0 "x")

let test_slotted_update () =
  let p = page () in
  let s = Option.get (Slotted.insert p "abcdef") in
  Alcotest.(check bool) "shrink" true (Slotted.update p s "xy");
  Alcotest.(check (option string)) "after shrink" (Some "xy") (Slotted.read p s);
  Alcotest.(check bool) "grow" true (Slotted.update p s (String.make 100 'z'));
  Alcotest.(check (option string))
    "after grow"
    (Some (String.make 100 'z'))
    (Slotted.read p s)

let test_slotted_update_too_big () =
  let p = page () in
  let s = Option.get (Slotted.insert p "abc") in
  let huge = String.make 600 'q' in
  Alcotest.(check bool) "grow beyond page" false (Slotted.update p s huge);
  Alcotest.(check (option string)) "original intact" (Some "abc") (Slotted.read p s)

let test_slotted_fill_compact () =
  let p = page () in
  (* Fill with records, delete alternate ones, release them, verify space is
     reclaimed by further inserts. *)
  let slots = ref [] in
  (try
     while true do
       match Slotted.insert p "0123456789" with
       | Some s -> slots := s :: !slots
       | None -> raise Exit
     done
   with Exit -> ());
  let n = List.length !slots in
  Alcotest.(check bool) "filled several" true (n > 10);
  List.iteri
    (fun i s ->
      if i mod 2 = 0 then begin
        ignore (Slotted.delete p s);
        Slotted.make_reusable p s
      end)
    !slots;
  let refills = ref 0 in
  (try
     while true do
       match Slotted.insert p "0123456789" with
       | Some _ -> incr refills
       | None -> raise Exit
     done
   with Exit -> ());
  Alcotest.(check bool)
    (Fmt.str "reclaimed %d" !refills)
    true
    (!refills >= (n / 2) - 1)

let test_disk_mem_roundtrip () =
  let d = Disk.in_memory ~page_size:256 () in
  let p1 = Disk.alloc d in
  let p2 = Disk.alloc d in
  Alcotest.(check int) "ids" 1 p1;
  Alcotest.(check int) "ids" 2 p2;
  let data = Bytes.make 256 'x' in
  Disk.write d p1 data;
  Alcotest.(check bytes) "read back" data (Disk.read d p1);
  Alcotest.(check bool) "fresh zeroed" true
    (Bytes.for_all (fun c -> c = '\000') (Disk.read d p2));
  (match Disk.read d 99 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out of range read accepted");
  (* the failed read raised before being counted *)
  Alcotest.(check int) "reads counted" 2 (Disk.stats d).Io_stats.page_reads

let test_disk_file_persistence () =
  let path = Filename.temp_file "dmx_disk" ".pages" in
  Sys.remove path;
  let d = Disk.open_file ~page_size:256 path in
  let p1 = Disk.alloc d in
  let data = Bytes.make 256 'y' in
  Disk.write d p1 data;
  Disk.sync d;
  Disk.close d;
  let d2 = Disk.open_file ~page_size:256 path in
  Alcotest.(check int) "page count persisted" 1 (Disk.page_count d2);
  Alcotest.(check bytes) "data persisted" data (Disk.read d2 p1);
  Disk.close d2;
  Sys.remove path

(* A file store reads back what an in-memory store does, byte for byte,
   under random alloc / write / read sequences and across close and reopen:
   skipping the [lseek] of a transfer that starts where the last one ended
   never lands a page at the wrong offset, and the read-ahead window never
   serves a stale page. Pages are 8 KB, so the window is 8 pages and runs
   of sequential reads cross its edges; some writes land just behind or
   ahead of the last page read, in the live window. Some reads and scans go
   through [Disk.read_into], into one buffer reused from read to read and
   holding the previous page, so window fills, window hits, single-page
   reads and reads after a write into the window are all checked on that
   path too. *)
let prop_disk_file_matches_memory =
  QCheck.Test.make ~name:"file store matches the in-memory store" ~count:60
    (QCheck.make
       ~print:(fun ops -> Fmt.str "%d ops" (List.length ops))
       QCheck.Gen.(
         list_size (int_range 1 80)
           (frequency
              [
                (3, return `Alloc);
                (3, map2 (fun i c -> `Write (i, c)) nat (int_range 0 255));
                ( 2,
                  map2 (fun d c -> `Write_near (d, c)) (int_range (-3) 8)
                    (int_range 0 255) );
                (3, map2 (fun i into -> `Read (i, into)) nat bool);
                ( 3,
                  map3 (fun i n into -> `Scan (i, n, into)) nat (int_range 1 20)
                    bool );
                (1, return `Reopen);
              ])))
    (fun ops ->
      let page_size = 8192 in
      let path = Filename.temp_file "dmx_disk_prop" ".pages" in
      Sys.remove path;
      let file = ref (Disk.open_file ~page_size path) in
      let mem = Disk.in_memory ~page_size () in
      let last_read = ref 1 in
      let buf = Bytes.make page_size '?' in
      let agree ?(into = false) id =
        last_read := id;
        let want = Disk.read mem id in
        let got =
          if into then begin
            Disk.read_into !file id buf;
            buf
          end
          else Disk.read !file id
        in
        if got <> want then
          QCheck.Test.fail_reportf "page %d differs%s" id
            (if into then " (read_into)" else "")
      in
      let write id c =
        let data =
          Bytes.init page_size (fun k -> Char.chr ((c + (k * 7)) land 255))
        in
        Disk.write !file id data;
        Disk.write mem id data
      in
      Fun.protect
        ~finally:(fun () ->
          Disk.close !file;
          Sys.remove path)
        (fun () ->
          List.iter
            (fun op ->
              let n = Disk.page_count mem in
              match op with
              | `Alloc ->
                let a = Disk.alloc !file and b = Disk.alloc mem in
                if a <> b then QCheck.Test.fail_reportf "alloc %d vs %d" a b
              | `Write (i, c) when n > 0 -> write ((i mod n) + 1) c
              | `Write_near (d, c) when n > 0 ->
                write (max 1 (min n (!last_read + d))) c
              | `Read (i, into) when n > 0 -> agree ~into ((i mod n) + 1)
              | `Scan (i, len, into) when n > 0 ->
                for id = (i mod n) + 1 to min n ((i mod n) + len) do
                  agree ~into id
                done
              | `Reopen ->
                Disk.close !file;
                file := Disk.open_file ~page_size path
              | `Write _ | `Write_near _ | `Read _ | `Scan _ -> ())
            ops;
          Disk.close !file;
          file := Disk.open_file ~page_size path;
          if Disk.page_count !file <> Disk.page_count mem then
            QCheck.Test.fail_report "page count differs after reopen";
          for id = 1 to Disk.page_count mem do
            agree id
          done;
          true))

(* The read calls and seeks [f] makes. *)
let disk_calls f =
  let seeks = Dmx_obs.Metrics.counter "disk.seeks" in
  let reads = Dmx_obs.Metrics.counter "disk.read_calls" in
  let was = Dmx_obs.Metrics.enabled () in
  Dmx_obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Dmx_obs.Metrics.set_enabled was)
    (fun () ->
      let s0 = Dmx_obs.Metrics.value seeks and r0 = Dmx_obs.Metrics.value reads in
      f ();
      (Dmx_obs.Metrics.value reads - r0, Dmx_obs.Metrics.value seeks - s0))

(* A file of [n] zeroed 256-byte pages, reopened so nothing was read yet. *)
let with_pages n f =
  let path = Filename.temp_file "dmx_disk_seq" ".pages" in
  Sys.remove path;
  let d = Disk.open_file ~page_size:256 path in
  for _ = 1 to n do
    ignore (Disk.alloc d)
  done;
  Disk.close d;
  let d = Disk.open_file ~page_size:256 path in
  Fun.protect
    ~finally:(fun () ->
      Disk.close d;
      Sys.remove path)
    (fun () -> f d)

(* Reading pages 1..N of a file in order costs one [lseek]: the first read's
   (the open left the offset after the header's fixed part); each later one
   starts where the last ended. The second read follows the first, so it
   fills the read-ahead window with the rest in one call, and a jump back
   into the window is served from it. *)
let test_disk_sequential_read_one_seek () =
  with_pages 8 (fun d ->
      let reads, seeks =
        disk_calls (fun () ->
            for id = 1 to 8 do
              ignore (Disk.read d id)
            done)
      in
      Alcotest.(check int) "8 sequential reads, one seek" 1 seeks;
      Alcotest.(check int) "and two read calls" 2 reads;
      Alcotest.(check int) "every page counted" 8
        (Disk.stats d).Io_stats.page_reads;
      let reads, seeks =
        disk_calls (fun () ->
            ignore (Disk.read d 3);
            ignore (Disk.read d 4))
      in
      Alcotest.(check (pair int int)) "a jump back into the window reads nothing"
        (0, 0) (reads, seeks))

(* A write to a page the window holds changes what the window serves: the
   page reads back as written, and no read call was made for it. *)
let test_disk_write_in_window_read_back () =
  with_pages 8 (fun d ->
      ignore (Disk.read d 1);
      ignore (Disk.read d 2);
      let data = Bytes.make 256 'w' in
      Disk.write d 5 data;
      let reads, _ =
        disk_calls (fun () ->
            Alcotest.(check bytes) "the written page" data (Disk.read d 5))
      in
      Alcotest.(check int) "served from the window" 0 reads;
      Alcotest.(check bool) "its neighbours unchanged" true
        (Bytes.for_all (fun c -> c = '\000') (Disk.read d 6)))

(* Reads that do not follow the page before keep one call a page: random
   and backward reads fetch nothing ahead. *)
let test_disk_backward_reads_one_page () =
  with_pages 8 (fun d ->
      let reads, _ =
        disk_calls (fun () ->
            for id = 8 downto 1 do
              ignore (Disk.read d id)
            done;
            List.iter (fun id -> ignore (Disk.read d id)) [ 3; 7; 2; 5 ])
      in
      Alcotest.(check int) "one call per page" 12 reads)

(* The sequential reader: a scan over more pages than the pool holds
   installs nothing. A resident page, dirty and newer than the store, is
   read in its frame; the others go through the reader's own buffer, each
   counted as a miss and a page read, under a [bp.miss] span marked
   uncached. With [poison] the buffer is overwritten after each page. A
   scan that fits the pool pins as before. *)
let test_scan_reader () =
  let d = Disk.in_memory ~page_size:256 () in
  let bp = Buffer_pool.create ~capacity:2 d in
  let ids =
    List.init 4 (fun i ->
        let f = Buffer_pool.alloc bp in
        Bytes.fill f.Buffer_pool.data 0 256 (Char.chr (65 + i));
        Buffer_pool.unpin bp f;
        f.Buffer_pool.page_id)
  in
  Buffer_pool.flush_all bp |> ignore;
  Buffer_pool.drop_cache bp;
  let first = List.hd ids in
  Buffer_pool.with_page_mut bp first (fun f -> Bytes.set f.Buffer_pool.data 0 'z');
  let before = Io_stats.copy (Disk.stats d) in
  let lines = ref [] in
  let seen = ref [] in
  Fun.protect
    ~finally:(fun () ->
      Dmx_obs.Emit.disarm `Trace;
      Dmx_obs.Emit.use_default_sink ();
      Dmx_obs.Emit.reset_for_testing ())
    (fun () ->
      Dmx_obs.Emit.set_line_sink (fun l -> lines := l :: !lines);
      Dmx_obs.Emit.arm `Trace;
      let r = Buffer_pool.scan_reader ~poison:true bp ~pages:4 in
      List.iter
        (fun id ->
          let kept =
            Buffer_pool.with_scan_page r id (fun data ->
                seen := Bytes.get data 0 :: !seen;
                data)
          in
          if id <> first then
            Alcotest.(check bool) "the buffer is poisoned after the page" true
              (Bytes.for_all (fun c -> c = '\xdb') kept))
        ids);
  let io = Io_stats.diff ~after:(Disk.stats d) ~before in
  Alcotest.(check (list char)) "the dirty frame, then the store"
    [ 'z'; 'B'; 'C'; 'D' ] (List.rev !seen);
  Alcotest.(check (list int)) "nothing installed" [ first ]
    (Buffer_pool.cached_page_ids bp);
  Alcotest.(check (pair int int)) "one hit, three misses" (1, 3)
    (io.Io_stats.pool_hits, io.Io_stats.pool_misses);
  Alcotest.(check int) "a page read per miss" 3 io.Io_stats.page_reads;
  Alcotest.(check int) "three uncached bp.miss spans" 3
    (List.length
       (List.filter
          (fun l ->
            Astring_contains.contains l "\"bp.miss\""
            && Astring_contains.contains l "\"cached\":false")
          !lines));
  let r = Buffer_pool.scan_reader bp ~pages:2 in
  List.iter
    (fun id -> Buffer_pool.with_scan_page r id ignore)
    (List.filteri (fun i _ -> i >= 2) ids);
  Alcotest.(check (list int)) "a scan that fits the pool installs its pages"
    (List.filteri (fun i _ -> i >= 2) ids)
    (Buffer_pool.cached_page_ids bp)

let test_buffer_pool_pin_evict () =
  let d = Disk.in_memory ~page_size:256 () in
  let bp = Buffer_pool.create ~capacity:2 d in
  let f1 = Buffer_pool.alloc bp in
  Bytes.set f1.Buffer_pool.data 0 'a';
  Buffer_pool.unpin ~dirty:true bp f1;
  let f2 = Buffer_pool.alloc bp in
  Buffer_pool.unpin ~dirty:true bp f2;
  let f3 = Buffer_pool.alloc bp in
  (* capacity 2: one of the first two was evicted and written back *)
  Buffer_pool.unpin ~dirty:true bp f3;
  Alcotest.(check bool) "write-back happened" true
    ((Disk.stats d).Io_stats.page_writes >= 1);
  let f1' = Buffer_pool.pin bp f1.Buffer_pool.page_id in
  Alcotest.(check char) "data survived eviction" 'a'
    (Bytes.get f1'.Buffer_pool.data 0);
  Buffer_pool.unpin bp f1'

(* ---- second-chance clock eviction ---- *)

(* The free list hands out slots 0, 1, 2, ... in order and the hand starts
   at slot 0, so these sweeps are deterministic. *)

let alloc_unpinned bp =
  let f = Buffer_pool.alloc bp in
  Buffer_pool.unpin ~dirty:true bp f;
  f.Buffer_pool.page_id

let test_clock_skips_pinned () =
  let d = Disk.in_memory ~page_size:256 () in
  let bp = Buffer_pool.create ~capacity:2 d in
  let f1 = Buffer_pool.alloc bp in
  (* f1 stays pinned *)
  let p2 = alloc_unpinned bp in
  let f3 = Buffer_pool.alloc bp in
  (* the sweep must pass over the pinned frame and take the unpinned one *)
  Alcotest.(check (list int)) "pinned frame survives"
    (List.sort compare [ f1.Buffer_pool.page_id; f3.Buffer_pool.page_id ])
    (Buffer_pool.cached_page_ids bp);
  Alcotest.(check bool) "unpinned frame evicted" true
    (not (List.mem p2 (Buffer_pool.cached_page_ids bp)));
  Buffer_pool.unpin ~dirty:true bp f1;
  Buffer_pool.unpin ~dirty:true bp f3

let test_clock_second_chance () =
  let d = Disk.in_memory ~page_size:256 () in
  let bp = Buffer_pool.create ~capacity:3 d in
  let _a = alloc_unpinned bp in
  let b = alloc_unpinned bp in
  let c = alloc_unpinned bp in
  (* First eviction: the full sweep clears every reference bit, then takes
     slot 0 (page [a]). The hand now rests on slot 1 (page [b]). *)
  let d4 = alloc_unpinned bp in
  Alcotest.(check (list int)) "first eviction takes the hand's slot"
    [ b; c; d4 ]
    (Buffer_pool.cached_page_ids bp);
  (* Re-reference [b] but not [c]: the next sweep reaches [b] first, must
     spare it (second chance) and take the unreferenced [c] instead. *)
  let fb = Buffer_pool.pin bp b in
  Buffer_pool.unpin bp fb;
  let e = alloc_unpinned bp in
  Alcotest.(check (list int)) "referenced frame spared, unreferenced evicted"
    [ b; d4; e ]
    (Buffer_pool.cached_page_ids bp);
  Alcotest.(check bool) "c gone" true
    (not (List.mem c (Buffer_pool.cached_page_ids bp)))

let test_clock_all_pinned_bounded_sweep () =
  (* every frame pinned: the sweep must terminate with a failure rather than
     revolve forever *)
  let d = Disk.in_memory ~page_size:256 () in
  let bp = Buffer_pool.create ~capacity:2 d in
  let f1 = Buffer_pool.alloc bp in
  let f2 = Buffer_pool.alloc bp in
  let victim = Disk.alloc d in
  (match Buffer_pool.pin bp victim with
  | exception Failure msg ->
    Alcotest.(check string) "diagnostic" "Buffer_pool: all frames pinned" msg
  | _ -> Alcotest.fail "pin succeeded with every frame pinned");
  (* releasing one pin makes the same pin succeed *)
  Buffer_pool.unpin ~dirty:true bp f2;
  let fv = Buffer_pool.pin bp victim in
  Buffer_pool.unpin bp fv;
  Buffer_pool.unpin ~dirty:true bp f1

let test_buffer_pool_all_pinned () =
  let d = Disk.in_memory ~page_size:256 () in
  let bp = Buffer_pool.create ~capacity:1 d in
  let f1 = Buffer_pool.alloc bp in
  (match Buffer_pool.alloc bp with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "should fail when all frames pinned");
  Buffer_pool.unpin ~dirty:true bp f1

let test_buffer_pool_flush_hook () =
  let d = Disk.in_memory ~page_size:256 () in
  let bp = Buffer_pool.create ~capacity:4 d in
  let called = ref 0 in
  Buffer_pool.set_flush_hook bp (fun _ -> incr called);
  let f = Buffer_pool.alloc bp in
  Buffer_pool.unpin ~dirty:true ~lsn:42L bp f;
  ignore (Buffer_pool.flush_all bp);
  Alcotest.(check int) "hook ran for dirty page" 1 !called;
  ignore (Buffer_pool.flush_all bp);
  Alcotest.(check int) "clean page skipped" 1 !called

let test_drop_cache () =
  let d = Disk.in_memory ~page_size:256 () in
  let bp = Buffer_pool.create ~capacity:4 d in
  let f = Buffer_pool.alloc bp in
  Bytes.set f.Buffer_pool.data 0 'z';
  Buffer_pool.unpin ~dirty:true bp f;
  (* dirty page lost without flush: simulates crash *)
  Buffer_pool.drop_cache bp;
  let f' = Buffer_pool.pin bp f.Buffer_pool.page_id in
  Alcotest.(check char) "unflushed change gone" '\000'
    (Bytes.get f'.Buffer_pool.data 0);
  Buffer_pool.unpin bp f'

(* Model property: random insert/delete/update/release sequences against a
   Hashtbl model; slots stay stable, contents match, space is recovered. *)
let prop_slotted_model =
  QCheck.Test.make ~name:"slotted page matches model" ~count:80
    (QCheck.make
       QCheck.Gen.(
         list
           (oneof
              [
                map (fun n -> `Ins (String.make n 'a')) (int_range 0 39);
                map (fun s -> `Del s) (int_range 0 30);
                map2
                  (fun s n -> `Upd (s, String.make n 'b'))
                  (int_range 0 30) (int_range 0 59);
                map (fun s -> `Release s) (int_range 0 30);
              ])))
    (fun ops ->
      let p = Bytes.make 512 '\000' in
      Slotted.init p;
      let model : (int, string) Hashtbl.t = Hashtbl.create 16 in
      let pending : (int, unit) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun op ->
          match op with
          | `Ins payload -> begin
            match Slotted.insert p payload with
            | Some s ->
              if Hashtbl.mem model s then
                QCheck.Test.fail_reportf "slot %d reused while live" s;
              if Hashtbl.mem pending s then
                QCheck.Test.fail_reportf "slot %d reused while pending" s;
              Hashtbl.replace model s payload
            | None -> ()  (* full *)
          end
          | `Del s ->
            let was_live = Hashtbl.mem model s in
            let deleted = Slotted.delete p s in
            if deleted <> was_live then
              QCheck.Test.fail_reportf "delete(%d) = %b but live = %b" s
                deleted was_live;
            if was_live then begin
              Hashtbl.remove model s;
              Hashtbl.replace pending s ()
            end
          | `Upd (s, payload) ->
            let was_live = Hashtbl.mem model s in
            let updated = Slotted.update p s payload in
            if updated then begin
              if not was_live then
                QCheck.Test.fail_reportf "update succeeded on dead slot %d" s;
              Hashtbl.replace model s payload
            end
            else if was_live then begin
              (* growth failure: original payload must be intact *)
              if Slotted.read p s <> Some (Hashtbl.find model s) then
                QCheck.Test.fail_report "failed update corrupted the record"
            end
          | `Release s ->
            Slotted.make_reusable p s;
            Hashtbl.remove pending s)
        ops;
      (* final contents agree *)
      Hashtbl.iter
        (fun s payload ->
          if Slotted.read p s <> Some payload then
            QCheck.Test.fail_reportf "slot %d diverged" s)
        model;
      Slotted.live_count p = Hashtbl.length model)

let test_io_stats_hit_ratio_and_clamp () =
  let module Io = Dmx_page.Io_stats in
  let s = Io.create () in
  Alcotest.(check bool) "no pins, no ratio" true (Io.hit_ratio s = None);
  s.Io.pool_hits <- 3;
  s.Io.pool_misses <- 1;
  (match Io.hit_ratio s with
  | Some r -> Alcotest.(check (float 1e-9)) "3 of 4" 0.75 r
  | None -> Alcotest.fail "expected a ratio");
  Alcotest.(check bool) "pp includes the ratio" true
    (Astring_contains.contains (Fmt.str "%a" Io.pp s) "hit ratio 75.0%");
  (* A reset between two snapshots must clamp, not go negative. *)
  let before = Io.copy s in
  Io.reset s;
  s.Io.page_reads <- 2;
  let d = Io.diff ~after:s ~before in
  Alcotest.(check int) "reads survive" 2 d.Io.page_reads;
  Alcotest.(check int) "hits clamped to zero" 0 d.Io.pool_hits;
  Alcotest.(check int) "misses clamped to zero" 0 d.Io.pool_misses

let suite =
  [
    Alcotest.test_case "io stats hit ratio and reset clamp" `Quick
      test_io_stats_hit_ratio_and_clamp;
    Alcotest.test_case "slotted basic" `Quick test_slotted_basic;
    QCheck_alcotest.to_alcotest prop_slotted_model;
    Alcotest.test_case "slotted delete / pending reuse" `Quick
      test_slotted_delete_pending;
    Alcotest.test_case "slotted insert_at" `Quick test_slotted_insert_at;
    Alcotest.test_case "slotted update" `Quick test_slotted_update;
    Alcotest.test_case "slotted oversized update" `Quick
      test_slotted_update_too_big;
    Alcotest.test_case "slotted fill + compaction" `Quick
      test_slotted_fill_compact;
    Alcotest.test_case "disk memory backend" `Quick test_disk_mem_roundtrip;
    Alcotest.test_case "disk file persistence" `Quick
      test_disk_file_persistence;
    QCheck_alcotest.to_alcotest prop_disk_file_matches_memory;
    Alcotest.test_case "sequential disk reads seek once" `Quick
      test_disk_sequential_read_one_seek;
    Alcotest.test_case
      "a write to a page inside the read-ahead window is read back" `Quick
      test_disk_write_in_window_read_back;
    Alcotest.test_case "backward and random disk reads read one page" `Quick
      test_disk_backward_reads_one_page;
    Alcotest.test_case "buffer pool pin/evict" `Quick test_buffer_pool_pin_evict;
    Alcotest.test_case "clock skips pinned frames" `Quick
      test_clock_skips_pinned;
    Alcotest.test_case "clock grants a second chance" `Quick
      test_clock_second_chance;
    Alcotest.test_case "clock all-pinned sweep is bounded" `Quick
      test_clock_all_pinned_bounded_sweep;
    Alcotest.test_case "buffer pool all pinned" `Quick
      test_buffer_pool_all_pinned;
    Alcotest.test_case "buffer pool WAL hook" `Quick test_buffer_pool_flush_hook;
    Alcotest.test_case "drop cache (crash sim)" `Quick test_drop_cache;
    Alcotest.test_case "a scan larger than the pool installs nothing" `Quick
      test_scan_reader;
  ]
