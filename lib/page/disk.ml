let default_page_size = 4096

type ops = {
  o_page_count : unit -> int;
  o_alloc : unit -> int;
  o_read : int -> bytes;
  o_write : int -> bytes -> unit;
  o_sync : unit -> unit;
  o_close : unit -> unit;
  o_durable : bool;
}

(* An open page file and the file offset its last read or write ended at,
   [-1] when unknown. A transfer that starts there issues no [lseek]: a
   sequential scan's misses are one [read] each. A transfer sets the offset
   unknown before it starts and records the new one only once it is
   complete, so an exception leaves it unknown and the next transfer
   seeks.

   The read-ahead window: [ahead] holds [ahead_n] pages starting at page
   [ahead_first], as the file held them when they were read or as a later
   write of this store left them. [last_read] is the page the last [read]
   returned, [0] when the last operation was not a read. *)
type file = {
  fd : Unix.file_descr;
  mutable at : int;
  ahead : bytes;
  mutable ahead_first : int;
  mutable ahead_n : int;
  mutable last_read : int;
}

type backend =
  | Mem of bytes array ref
  | File of file
  | Custom of ops

type t = {
  page_size : int;
  backend : backend;
  mutable pages : int;  (* allocated user pages; ids 1..pages (Mem/File) *)
  stats : Io_stats.t;
  mutable closed : bool;
}

let page_size t = t.page_size

let page_count t =
  match t.backend with Custom o -> o.o_page_count () | Mem _ | File _ -> t.pages

let stats t = t.stats


let in_memory ?(page_size = default_page_size) () =
  {
    page_size;
    backend = Mem (ref [||]);
    pages = 0;
    stats = Io_stats.create ();
    closed = false;
  }

(* File layout: page 0 is a header holding magic, page size and the allocated
   page count; user page [id] lives at offset [id * page_size]. *)
let magic = "DMXPAGES"

let header_bytes t =
  let b = Bytes.make t.page_size '\000' in
  Bytes.blit_string magic 0 b 0 (String.length magic);
  Bytes.set_int32_le b 8 (Int32.of_int t.page_size);
  Bytes.set_int32_le b 12 (Int32.of_int t.pages);
  b

let m_seeks = Dmx_obs.Metrics.counter "disk.seeks"
let m_read_calls = Dmx_obs.Metrics.counter "disk.read_calls"

let seek f off =
  let at = f.at in
  f.at <- -1;
  if at <> off then begin
    Dmx_obs.Metrics.incr m_seeks;
    ignore (Unix.LargeFile.lseek f.fd (Int64.of_int off) Unix.SEEK_SET)
  end

(* Reads [buf.[0 .. n-1]] from offset [off]. *)
let really_pread f ~off buf n =
  seek f off;
  let rec loop done_ =
    if done_ < n then begin
      Dmx_obs.Metrics.incr m_read_calls;
      let r = Unix.read f.fd buf done_ (n - done_) in
      if r = 0 then failwith "Disk: short read";
      loop (done_ + r)
    end
  in
  loop 0;
  f.at <- off + n

let really_pwrite f ~off buf =
  let n = Bytes.length buf in
  seek f off;
  let rec loop done_ =
    if done_ < n then begin
      let w = Unix.write f.fd buf done_ (n - done_) in
      loop (done_ + w)
    end
  in
  loop 0;
  f.at <- off + n

let write_header t =
  match t.backend with
  | Mem _ | Custom _ -> ()
  | File f -> really_pwrite f ~off:0 (header_bytes t)

let custom ?(page_size = default_page_size) ops =
  {
    page_size;
    backend = Custom ops;
    pages = 0;
    stats = Io_stats.create ();
    closed = false;
  }

(* One [Unix.read] moves at most [UNIX_BUFFER_SIZE] (64 KB) bytes, so the
   window is as many pages as fit in that, and is filled with one call. *)
let ahead_bytes = 65536

let open_file ?(page_size = default_page_size) path =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  let size = (Unix.fstat fd).Unix.st_size in
  let f =
    {
      fd;
      at = 0;
      ahead = Bytes.create (max 1 (ahead_bytes / page_size) * page_size);
      ahead_first = 0;
      ahead_n = 0;
      last_read = 0;
    }
  in
  if size = 0 then begin
    let t =
      {
        page_size;
        backend = File f;
        pages = 0;
        stats = Io_stats.create ();
        closed = false;
      }
    in
    write_header t;
    t
  end
  else begin
    (* Read just the fixed part first in case page size differs. *)
    let fixed = Bytes.create 16 in
    really_pread f ~off:0 fixed 16;
    if Bytes.sub_string fixed 0 8 <> magic then
      failwith (Fmt.str "Disk.open_file: %s is not a dmx page store" path);
    let stored_ps = Int32.to_int (Bytes.get_int32_le fixed 8) in
    if stored_ps <> page_size then
      failwith
        (Fmt.str "Disk.open_file: %s has page size %d, expected %d" path
           stored_ps page_size);
    let pages = Int32.to_int (Bytes.get_int32_le fixed 12) in
    {
      page_size;
      backend = File f;
      pages;
      stats = Io_stats.create ();
      closed = false;
    }
  end

let in_window f id = id >= f.ahead_first && id < f.ahead_first + f.ahead_n

(* Every page write of a file store goes through here: it breaks a run of
   sequential reads, and a page in the read-ahead window takes the new bytes
   once they are written. The window is set aside during the write, so a
   failed write leaves none. *)
let write_page t f id data =
  f.last_read <- 0;
  if in_window f id then begin
    let n = f.ahead_n in
    f.ahead_n <- 0;
    really_pwrite f ~off:(id * t.page_size) data;
    Bytes.blit data 0 f.ahead ((id - f.ahead_first) * t.page_size) t.page_size;
    f.ahead_n <- n
  end
  else really_pwrite f ~off:(id * t.page_size) data

let check_open t = if t.closed then invalid_arg "Disk: store is closed"

let check_id t id =
  let n = page_count t in
  if id < 1 || id > n then
    invalid_arg (Fmt.str "Disk: page %d out of range (1..%d)" id n)

let alloc t =
  check_open t;
  t.stats.page_allocs <- t.stats.page_allocs + 1;
  match t.backend with
  | Custom o -> o.o_alloc ()
  | Mem store ->
    t.pages <- t.pages + 1;
    let id = t.pages in
    let zero = Bytes.make t.page_size '\000' in
    let arr = !store in
    if Array.length arr < id then begin
      let bigger =
        Array.make (max 8 (2 * Array.length arr)) Bytes.empty
      in
      Array.blit arr 0 bigger 0 (Array.length arr);
      store := bigger
    end;
    !store.(id - 1) <- zero;
    id
  | File f ->
    t.pages <- t.pages + 1;
    let id = t.pages in
    write_page t f id (Bytes.make t.page_size '\000');
    write_header t;
    id

(* A read of page [id] right after a read of page [id - 1] fills the window
   with up to its size of pages from [id] on, cut at the last allocated
   page, in one [read] call; a read of a page in the window copies it out.
   Any other read reads its one page. So a sequential scan makes one call
   per window, and random or backward reads keep one call per page. The
   window is emptied before a fill starts, so a failed fill leaves none. *)
let read_file t f id buf =
  let ps = t.page_size in
  let follows = f.last_read > 0 && id = f.last_read + 1 in
  f.last_read <- id;
  if follows && not (in_window f id) then begin
    let n = min (Bytes.length f.ahead / ps) (t.pages - id + 1) in
    f.ahead_n <- 0;
    really_pread f ~off:(id * ps) f.ahead (n * ps);
    f.ahead_first <- id;
    f.ahead_n <- n
  end;
  if in_window f id then Bytes.blit f.ahead ((id - f.ahead_first) * ps) buf 0 ps
  else really_pread f ~off:(id * ps) buf ps

let read_into t id buf =
  check_open t;
  check_id t id;
  if Bytes.length buf <> t.page_size then
    invalid_arg "Disk.read_into: buffer is not one page";
  t.stats.page_reads <- t.stats.page_reads + 1;
  match t.backend with
  | Mem store -> Bytes.blit !store.(id - 1) 0 buf 0 t.page_size
  | File f -> read_file t f id buf
  | Custom o -> Bytes.blit (o.o_read id) 0 buf 0 t.page_size

let read t id =
  let buf = Bytes.create t.page_size in
  read_into t id buf;
  buf

let write t id data =
  check_open t;
  check_id t id;
  if Bytes.length data <> t.page_size then
    invalid_arg "Disk.write: data is not one page";
  t.stats.page_writes <- t.stats.page_writes + 1;
  match t.backend with
  | Mem store -> !store.(id - 1) <- Bytes.copy data
  | File f -> write_page t f id data
  | Custom o -> o.o_write id data

let sync t =
  check_open t;
  match t.backend with
  | Mem _ -> ()
  | File f -> Unix.fsync f.fd
  | Custom o -> o.o_sync ()

let close t =
  if not t.closed then begin
    (match t.backend with
    | Mem _ -> ()
    | File f ->
      f.ahead_n <- 0;
      Unix.close f.fd
    | Custom o -> o.o_close ());
    t.closed <- true
  end
