open Dmx_value

let m_appends = Dmx_obs.Metrics.counter "wal.appends"
let m_flushes = Dmx_obs.Metrics.counter "wal.flushes"
let m_flushed_records = Dmx_obs.Metrics.counter "wal.flushed_records"
let m_write_syscalls = Dmx_obs.Metrics.counter "wal.write_syscalls"
let m_fsyncs = Dmx_obs.Metrics.counter "wal.fsyncs"

(* Physical framed bytes appended to the log, by either backend. *)
let m_appended_bytes = Dmx_obs.Metrics.counter "wal.appended_bytes"
let m_truncations = Dmx_obs.Metrics.counter "wal.truncations"
let m_truncated_bytes = Dmx_obs.Metrics.counter "wal.truncated_bytes"
let m_decoded = Dmx_obs.Metrics.counter "wal.decoded_frames"
let h_flush_us = Dmx_obs.Metrics.histogram "wal.flush_us"

(* The file is kept zero-filled and synced from the log's logical end
   [size] to its length [alloc], so a flush overwrites blocks that exist and
   its fsync journals no new file size. The descriptor's offset stays at
   [size]: a flush writes there without a seek, and every read seeks back. *)
type file = {
  mutable fd : Unix.file_descr;
  path : string;  (* for truncation's rewrite-and-rename *)
  mutable size : int;  (* logical end: header and frames written *)
  mutable synced : int;  (* prefix of [size] known durable (fsynced) *)
  mutable alloc : int;  (* file length; [size, alloc) holds zeros *)
  buf : Buffer.t;  (* pending records, already framed *)
}

(* A memory log's buffer holds what a log file holds up to its end. *)
type backend = Mem of Buffer.t | File of file

type truncate_phase = Trunc_begin | Trunc_rename | Trunc_done

(* Nothing here grows with the log: its records live only in their frames,
   except that [replayed] holds what {!open_file} decoded until the first
   {!read_all} or append. *)
type t = {
  backend : backend;
  (* LSNs stay stable across truncation: [base] records have been dropped
     from the front, so the first retained frame holds LSN [base + 1]. *)
  mutable base : int;
  mutable last : int;  (* LSN of the newest record; [base] when none *)
  mutable flushed : Log_record.lsn;
  mutable closed : bool;
  mutable append_observer : Log_record.lsn -> unit;
  mutable truncate_observer : truncate_phase -> unit;
  mutable last_ckpt : Log_record.lsn;  (* newest Checkpoint record; 0 = none *)
  mutable next_txid : Log_record.txid;
  mutable appended_bytes : int;  (* monotone framed bytes, immune to truncation *)
  mutable truncations : int;
  mutable truncated_bytes : int;
  mutable replayed : Log_record.t array;
}

(* File header: magic + little-endian base LSN. Records start at
   [header_len]; a truncated log persists its base here so LSNs stay stable
   across restart. The magic names the record format; a log whose magic
   names another [DMXWAL..] format numbers or shapes its records differently
   (Savepoint, Ckpt_begin/Ckpt_end or transaction-start frames): replaying
   it would misread records, then cut the log at the first frame that fails
   to decode as if it were a torn tail. It is refused instead, as is any
   file with data past where a header would end but no header: it is not a
   log, and opening it as one would overwrite it. *)
let header_magic = "DMXWAL03"
let header_len = 16

let header_string base =
  let hdr = Bytes.create header_len in
  Bytes.blit_string header_magic 0 hdr 0 8;
  Bytes.set_int64_le hdr 8 (Int64.of_int base);
  Bytes.unsafe_to_string hdr

let in_memory () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (header_string 0);
  {
    backend = Mem buf;
    base = 0;
    last = 0;
    flushed = 0L;
    closed = false;
    append_observer = ignore;
    truncate_observer = ignore;
    last_ckpt = 0L;
    next_txid = 1;
    appended_bytes = 0;
    truncations = 0;
    truncated_bytes = 0;
    replayed = [||];
  }

(* A record takes the next LSN; the log keeps its checkpoint and txid. *)
let note t txid (kind : Log_record.kind) =
  t.last <- t.last + 1;
  t.next_txid <- Int.max t.next_txid (txid + 1);
  match kind with
  | Checkpoint { next_txid; _ } ->
    t.last_ckpt <- Int64.of_int t.last;
    t.next_txid <- Int.max t.next_txid next_txid
  | Commit | Abort | Ext _ | Clr _ -> ()

(* Frame: [u32 len][payload][u32 sum-of-bytes checksum] *)
let checksum s =
  let acc = ref 0 in
  String.iter (fun c -> acc := (!acc + Char.code c) land 0x3fffffff) s;
  !acc

(* Records are framed straight into the log's buffer at append time, so a
   flush is one contiguous write of everything buffered — no per-record
   [Bytes] allocation, no per-record write syscall. *)
let frame_into buf txid kind =
  let e = Codec.Enc.create () in
  Log_record.encode e txid kind;
  let payload = Codec.Enc.to_string e in
  Buffer.add_int32_le buf (Int32.of_int (String.length payload));
  Buffer.add_string buf payload;
  Buffer.add_int32_le buf (Int32.of_int (checksum payload))

(* The one decoder, which open's replay and [read_all] share: hand each
   record framed in [data] from [pos] to [f], up to the first frame that
   fails to read — a length of 0 or less, a frame that overruns [data], a
   bad checksum or a payload that does not decode — and return its
   offset. *)
let rec walk data pos f =
  match
    if pos + 8 > String.length data then raise Exit;
    let n = Int32.to_int (String.get_int32_le data pos) in
    if n <= 0 || pos + 8 + n > String.length data then raise Exit;
    let payload = String.sub data (pos + 4) n in
    if Int32.to_int (String.get_int32_le data (pos + 4 + n)) <> checksum payload
    then raise Exit;
    (Log_record.decode (Codec.Dec.of_string payload), pos + 8 + n)
  with
  | (txid, kind), next ->
    Dmx_obs.Metrics.incr m_decoded;
    f txid kind;
    walk data next f
  | exception (Exit | Failure _ | Invalid_argument _) -> pos

(* The offset past [k] frames from [pos] in [s]: only their lengths are
   read. *)
let rec skip_frames s pos k =
  if k = 0 then pos
  else
    skip_frames s (pos + 8 + Int32.to_int (String.get_int32_le s pos)) (k - 1)

let seek fd pos = ignore (Unix.LargeFile.lseek fd (Int64.of_int pos) Unix.SEEK_SET)

let write_sub fd s ~off ~len =
  let rec loop done_ =
    if done_ < len then begin
      let w = Unix.write_substring fd s (off + done_) (len - done_) in
      Dmx_obs.Metrics.incr m_write_syscalls;
      loop (done_ + w)
    end
  in
  loop 0

let really_write fd s = write_sub fd s ~off:0 ~len:(String.length s)

let sync fd =
  Unix.fsync fd;
  Dmx_obs.Metrics.incr m_fsyncs

let read_into fd buf ~pos ~len =
  seek fd pos;
  let rec loop done_ =
    if done_ < len then
      let r = Unix.read fd buf done_ (len - done_) in
      if r > 0 then loop (done_ + r)
  in
  loop 0

(* The file grows a step at a time, past the frames that need the room.
   Zeros go out a block at a time, so growing allocates nothing the size of
   the step. *)
let step = 1 lsl 20
let zero_block = String.make 65536 '\000'
let next_step n = ((n / step) + 1) * step

(* Zero [from, upto) of the file, leaving the offset at [upto] when it
   writes; the caller syncs. *)
let zero_range fd ~from ~upto =
  if upto > from then begin
    seek fd from;
    let rec loop n =
      if n > 0 then begin
        let k = min n (String.length zero_block) in
        write_sub fd zero_block ~off:0 ~len:k;
        loop (n - k)
      end
    in
    loop (upto - from)
  end

(* Offset just past the last nonzero byte of the first [len] bytes, read
   backwards a block at a time: a zero tail costs reads, not a buffer of its
   size. *)
let data_end fd len =
  let chunk = Bytes.create (String.length zero_block) in
  let rec back upto =
    if upto = 0 then 0
    else begin
      let from = max 0 (upto - Bytes.length chunk) in
      read_into fd chunk ~pos:from ~len:(upto - from);
      let rec last i =
        if i = 0 then None
        else if i >= 8 && Int64.equal (Bytes.get_int64_ne chunk (i - 8)) 0L
        then last (i - 8)
        else if Bytes.get chunk (i - 1) = '\000' then last (i - 1)
        else Some (from + i)
      in
      match last (upto - from) with Some e -> e | None -> back from
    end
  in
  back len

let open_file path =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  let len = (Unix.fstat fd).Unix.st_size in
  (* Only the bytes up to the zero tail are read. A frame's last nonzero
     byte lies in its checksum, so no frame ends more than 3 bytes past
     [dirty]. The checksum is 0 only when the payload's bytes sum to a
     multiple of 2^30: all zeros, which does not decode, or over 4 MB. *)
  let dirty = data_end fd len in
  let size = min len (max header_len (dirty + 3)) in
  let data =
    let buf = Bytes.create size in
    read_into fd buf ~pos:0 ~len:size;
    Bytes.unsafe_to_string buf
  in
  let magic = if size >= 8 then String.sub data 0 8 else "" in
  let headered = size >= header_len && magic = header_magic in
  (* Without a header, only a file with nothing past where the header ends
     is a log: a fresh one, or one whose header was torn before any frame
     followed it. *)
  if (not headered) && dirty > header_len then begin
    Unix.close fd;
    raise
      (Sys_error
         (Fmt.str "%s: not a %s log (it begins %S)" path header_magic
            (String.sub data 0 (min 8 size))))
  end;
  (* a crash between truncation's rewrite and rename can leave the temp
     file behind; the original log is still authoritative *)
  let tmp = path ^ ".tmp" in
  if Sys.file_exists tmp then Sys.remove tmp;
  let base = if headered then Int64.to_int (String.get_int64_le data 8) else 0 in
  let f =
    { fd; path; size = 0; synced = 0; alloc = len; buf = Buffer.create 4096 }
  in
  let t = { (in_memory ()) with backend = File f; base; last = base } in
  (* The log's end is the first frame that fails to read. Replay keeps
     the records it decoded for the first [read_all]: restart reads them
     right after. *)
  let records = ref [] in
  f.size <-
    walk data header_len (fun txid kind ->
        note t txid kind;
        records := { Log_record.lsn = Int64.of_int t.last; txid; kind } :: !records);
  t.replayed <- Array.of_list (List.rev !records);
  f.synced <- f.size;
  if not headered then begin
    seek fd 0;
    really_write fd (header_string 0)
  end;
  (* Before the first append nothing past the end may read as a frame: a
     valid frame behind a torn one would be replayed once new frames fill
     the gap in front of it. So the bytes past the end that are not zeros
     yet are zeroed, a log without a tail gets one, and both are synced. *)
  zero_range fd ~from:f.size ~upto:dirty;
  f.alloc <- max len (next_step f.size);
  zero_range fd ~from:(max len f.size) ~upto:f.alloc;
  sync fd;
  seek fd f.size;
  t.flushed <- Int64.of_int t.last;
  t

let check_open t = if t.closed then invalid_arg "Wal: log is closed"

let set_append_observer t f = t.append_observer <- f
let set_truncate_observer t f = t.truncate_observer <- f

let append_now t txid kind =
  let buf = match t.backend with Mem b -> b | File f -> f.buf in
  let before = Buffer.length buf in
  frame_into buf txid kind;
  let framed = Buffer.length buf - before in
  t.appended_bytes <- t.appended_bytes + framed;
  Dmx_obs.Metrics.add m_appended_bytes framed;
  note t txid kind;
  let lsn = Int64.of_int t.last in
  t.replayed <- [||];
  (match t.backend with Mem _ -> t.flushed <- lsn | File _ -> ());
  t.append_observer lsn;
  Dmx_obs.Metrics.incr m_appends;
  lsn

let append t txid kind =
  check_open t;
  if not (Dmx_obs.Emit.active ()) then append_now t txid kind
  else begin
    let sp = Dmx_obs.Emit.enter "wal.append" ~txid ~key:Dmx_obs.Profile.Wal in
    match append_now t txid kind with
    | lsn ->
      Dmx_obs.Emit.exit sp
        ~attrs:
          [ ("lsn", Dmx_obs.Obs_json.Int (Int64.to_int lsn));
            ("kind", Dmx_obs.Obs_json.Str (Fmt.str "%a" Log_record.pp_kind kind)) ];
      lsn
    | exception e ->
      Dmx_obs.Emit.exit ~outcome:"exn" sp;
      raise e
  end

let last_lsn t = Int64.of_int t.last
let flushed_lsn t = t.flushed
let base_lsn t = Int64.of_int t.base
let last_checkpoint_lsn t = t.last_ckpt
let next_txid t = t.next_txid
let record_count t = t.last - t.base
let appended_bytes t = t.appended_bytes
let truncations t = t.truncations
let truncated_bytes t = t.truncated_bytes

let end_offset t =
  match t.backend with Mem b -> Buffer.length b | File f -> f.size
let allocated t = match t.backend with Mem _ -> 0 | File f -> f.alloc

(* Zero-fill to the step past [upto] and sync, so the frames written next
   overwrite blocks that exist. *)
let grow f upto =
  let alloc = next_step upto in
  Fun.protect
    ~finally:(fun () -> seek f.fd f.size)
    (fun () ->
      zero_range f.fd ~from:f.alloc ~upto:alloc;
      sync f.fd;
      f.alloc <- alloc)

let flush ?upto t =
  check_open t;
  let upto = Option.value ~default:(last_lsn t) upto in
  match t.backend with
  | Mem _ -> ()
  | File f ->
    let need_write = upto > t.flushed in
    (* Also harden bytes an earlier flush wrote but failed to fsync, even
       when nothing new is pending. *)
    let need_sync = need_write || f.synced < f.size in
    if need_sync then begin
      (* the flush span inherits the enclosing span's transaction: a
         commit-path flush charges the committing transaction, an
         eviction-path flush charges whoever faulted the page *)
      let sp = Dmx_obs.Emit.enter "wal.flush" ~key:Dmx_obs.Profile.Wal in
      let observed = Dmx_obs.Metrics.enabled () || Dmx_obs.Emit.active () in
      let t0 = if observed then Unix.gettimeofday () else 0. in
      let records = t.last - Int64.to_int t.flushed in
      if need_write then begin
        (* Write every pending record in one contiguous write; fine-grained
           partial flush is not worth the bookkeeping since pending records
           are contiguous. *)
        let data = Buffer.contents f.buf in
        let end_ = f.size + String.length data in
        if end_ > f.alloc then grow f end_;
        (* a failed write must not leave the offset past the end *)
        (match really_write f.fd data with
        | () -> ()
        | exception e ->
          seek f.fd f.size;
          raise e);
        f.size <- end_;
        Buffer.clear f.buf;
        t.flushed <- last_lsn t
      end;
      sync f.fd;
      f.synced <- f.size;
      if observed then begin
        let us = (Unix.gettimeofday () -. t0) *. 1e6 in
        if need_write then begin
          Dmx_obs.Metrics.incr m_flushes;
          Dmx_obs.Metrics.add m_flushed_records records
        end;
        Dmx_obs.Metrics.observe h_flush_us us;
        Dmx_obs.Emit.exit sp
          ~attrs:
            [ ("records", Dmx_obs.Obs_json.Int records);
              ("upto", Dmx_obs.Obs_json.Int (Int64.to_int t.flushed)) ]
      end
    end

let unsynced_bytes t =
  match t.backend with Mem _ -> 0 | File f -> f.size - f.synced

let pending_records t =
  match t.backend with Mem _ -> 0 | File _ -> t.last - Int64.to_int t.flushed

let pending_bytes t =
  match t.backend with Mem _ -> 0 | File f -> Buffer.length f.buf

(* The retained frames, pending ones included, laid out as the file is past
   its header. A file log reads them in one read and leaves the offset at
   its end, where the next flush writes. *)
let frames t =
  match t.backend with
  | Mem b -> Buffer.sub b header_len (Buffer.length b - header_len)
  | File f ->
    let n = f.size - header_len in
    let data = Bytes.create (n + Buffer.length f.buf) in
    Fun.protect
      ~finally:(fun () -> seek f.fd f.size)
      (fun () -> read_into f.fd data ~pos:header_len ~len:n);
    Buffer.blit f.buf 0 data n (Buffer.length f.buf);
    Bytes.unsafe_to_string data

let read_all t =
  check_open t;
  let replayed = t.replayed in
  t.replayed <- [||];
  if Array.length replayed > 0 && Array.length replayed = t.last - t.base then
    replayed
  else
  let records =
    Array.make (t.last - t.base)
      { Log_record.lsn = 0L; txid = 0; kind = Log_record.Commit }
  in
  let i = ref 0 in
  ignore
    (walk (frames t) 0 (fun txid kind ->
         records.(!i) <-
           { Log_record.lsn = Int64.of_int (t.base + 1 + !i); txid; kind };
         incr i));
  if !i < Array.length records then
    raise (Sys_error (Fmt.str "Wal: LSN %d no longer reads" (t.base + 1 + !i)));
  records

(* Drop every record with LSN < [cut], clamped to the covered range — asking
   to truncate past the end (or before the base) is a no-op on the excess,
   never an error. The cut's offset is found by walking frame lengths, and
   the frames past it are kept as they are, never decoded. The file backend
   writes a new header, those frames, pending ones included, and a zero
   tail into a temp file, fsyncs it once, renames it over the log and
   fsyncs the directory ({!Durable.replace}), so a crash at any point
   leaves either the old or the new log intact, and truncation only ever
   strengthens durability. Returns (records_dropped,
   bytes_freed). *)
let truncate_before t cut =
  check_open t;
  let keep_from = min (max (Int64.to_int cut) (t.base + 1)) (t.last + 1) in
  let drop = keep_from - t.base - 1 in
  if drop <= 0 then (0, 0)
  else begin
    t.truncate_observer Trunc_begin;
    t.replayed <- [||];
    let base = t.base + drop in
    let data = frames t in
    let freed = skip_frames data 0 drop in
    let kept = String.length data - freed in
    (match t.backend with
    | Mem b ->
      Buffer.clear b;
      Buffer.add_string b (header_string base);
      Buffer.add_substring b data freed kept
    | File f ->
      let size = header_len + kept in
      let fd2 =
        Durable.replace f.path ~sync
          ~before_rename:(fun () -> t.truncate_observer Trunc_rename)
          (fun fd2 ->
            really_write fd2 (header_string base);
            write_sub fd2 data ~off:freed ~len:kept;
            zero_range fd2 ~from:size ~upto:(next_step size))
      in
      seek fd2 size;
      Unix.close f.fd;
      f.fd <- fd2;
      f.size <- size;
      f.synced <- size;
      f.alloc <- next_step size;
      Buffer.clear f.buf);
    t.base <- base;
    if t.last_ckpt <= Int64.of_int base then t.last_ckpt <- 0L;
    t.flushed <- last_lsn t;
    t.truncations <- t.truncations + 1;
    t.truncated_bytes <- t.truncated_bytes + freed;
    Dmx_obs.Metrics.incr m_truncations;
    Dmx_obs.Metrics.add m_truncated_bytes freed;
    if Dmx_obs.Emit.active () then
      Dmx_obs.Emit.event "wal.truncate"
        ~attrs:
          [ ("cut", Dmx_obs.Obs_json.Int (t.base + 1));
            ("dropped", Dmx_obs.Obs_json.Int drop);
            ("bytes", Dmx_obs.Obs_json.Int freed) ];
    t.truncate_observer Trunc_done;
    (drop, freed)
  end

let close t =
  if not t.closed then begin
    (try flush t with Unix.Unix_error _ | Sys_error _ -> ());
    (match t.backend with Mem _ -> () | File f -> Unix.close f.fd);
    t.closed <- true
  end

let abandon t =
  if not t.closed then begin
    (match t.backend with Mem _ -> () | File f -> Unix.close f.fd);
    t.closed <- true
  end

let crash t =
  if not t.closed then begin
    (match t.backend with
    | Mem _ -> ()
    | File f ->
      (* Power loss: written-but-unsynced bytes are not durable, and in the
         preallocated file they read back as the zeros that were there.
         Losing them all is the deterministic worst case; torn-tail tests
         cover the partial-persistence prefixes in between. *)
      zero_range f.fd ~from:f.synced ~upto:f.size;
      Unix.close f.fd);
    t.closed <- true
  end

let simulate_torn_tail t ~bytes_to_truncate =
  match t.backend with
  | Mem _ -> invalid_arg "Wal.simulate_torn_tail: memory-backed log"
  | File f ->
    flush t;
    let cut = max 0 (f.size - bytes_to_truncate) in
    zero_range f.fd ~from:cut ~upto:f.size;
    seek f.fd cut;
    f.size <- cut;
    f.synced <- min f.synced cut
