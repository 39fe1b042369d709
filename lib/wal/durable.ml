let m_dir_fsyncs = Dmx_obs.Metrics.counter "durable.dir_fsyncs"

let sync_dir dir =
  let fd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.fsync fd;
      Dmx_obs.Metrics.incr m_dir_fsyncs)

let replace ?(before_rename = ignore) ~sync path write =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  (match
     write fd;
     sync fd;
     before_rename ()
   with
  | () -> ()
  | exception e ->
    Unix.close fd;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  match
    Unix.rename tmp path;
    sync_dir (Filename.dirname path)
  with
  | () -> fd
  | exception e ->
    Unix.close fd;
    raise e
