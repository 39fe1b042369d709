(* An interactive shell over the whole stack. Line-oriented, SQL-flavoured:

     create table emp (id int not null, name string, salary int) using heap
     create table kv (k int not null, v string) using btree with key=k
     create index pk on emp using btree_index with fields=id, unique=true
     create constraint paid on emp using check with predicate='salary > 0'
     insert into emp values (1, 'alice', 120)
     select * from emp where salary > 100
     select name, salary from emp where id = 1
     select * from emp join dept on dept=name where salary > 100
     prepare p1 select * from emp where salary > ?0
     execute p1 (100)
     deallocate p1
     explain select * from emp where id = 1
     explain analyze select * from emp join dept on dept=name
     update emp set salary = 200 where id = 1
     delete from emp where id = 1
     begin | commit | abort | savepoint s1 | rollback to s1
     drop index pk on emp using btree_index
     drop table emp
     show tables | describe emp | show extensions
     show views          (mounted dmx_* system views and their providers)
     show stats          (metrics registry dump: counters + histograms)
     stats reset         (zero counters/histograms for per-phase deltas)
     show profile        (latency attribution by component, per transaction)
     trace | events | profile | statements on | off | reset
                         (telemetry sinks: JSON Lines trace, the dmx_events
                          ring, the profiler, the query store; DMX_OBS=...)
     show statements [top N by calls|time|io]   (per-fingerprint statistics)
     watch select * from dmx_wal 5   (re-run a query; DMX_WATCH_MS interval)
     quit

   Run with: dune exec bin/dmx_shell.exe            (in-memory)
             dune exec bin/dmx_shell.exe -- ./data  (durable)      *)

open Dmx_value
module Db = Dmx_db.Db
module Query = Dmx_query.Query
module Error = Dmx_core.Error
module Relation = Dmx_core.Relation
module Descriptor = Dmx_catalog.Descriptor

exception Shell_error of string

let err fmt = Fmt.kstr (fun s -> raise (Shell_error s)) fmt

(* ---- tokenizer: words, 'strings', parens, commas, = ---- *)

type tok = Word of string | Str of string | Lpar | Rpar | Comma | Equals

let tokenize line =
  let n = String.length line in
  let toks = ref [] in
  let i = ref 0 in
  while !i < n do
    let c = line.[!i] in
    if c = ' ' || c = '\t' then incr i
    else if c = '(' then (incr i; toks := Lpar :: !toks)
    else if c = ')' then (incr i; toks := Rpar :: !toks)
    else if c = ',' then (incr i; toks := Comma :: !toks)
    else if c = '=' then (incr i; toks := Equals :: !toks)
    else if c = '\'' then begin
      incr i;
      let b = Buffer.create 8 in
      let rec loop () =
        if !i >= n then err "unterminated string"
        else if line.[!i] = '\'' then incr i
        else begin
          Buffer.add_char b line.[!i];
          incr i;
          loop ()
        end
      in
      loop ();
      toks := Str (Buffer.contents b) :: !toks
    end
    else begin
      let start = !i in
      while
        !i < n
        && not (List.mem line.[!i] [ ' '; '\t'; '('; ')'; ','; '='; '\'' ])
      do
        incr i
      done;
      toks := Word (String.sub line start (!i - start)) :: !toks
    end
  done;
  List.rev !toks

let kw s = String.lowercase_ascii s

(* ---- shell state ---- *)

type state = {
  db : Db.t;
  mutable txn : Dmx_core.Ctx.t option;  (* explicit transaction, if any *)
  (* prepared statements: name -> parsed query (with ?N parameter holes)
     and its projection; execute binds values and runs the cached plan *)
  prepared : (string, Query.t * string list option) Hashtbl.t;
}

let ok = function
  | Ok v -> v
  | Error e -> raise (Shell_error (Error.to_string e))

(* run [f] in the explicit transaction or a one-statement transaction *)
let with_ctx st f =
  match st.txn with
  | Some ctx -> f ctx
  | None -> begin
    match Db.with_txn st.db (fun ctx -> Ok (f ctx)) with
    | Ok v -> v
    | Error e -> raise (Shell_error (Error.to_string e))
  end

(* ---- parsing helpers ---- *)

let parse_type = function
  | "int" | "integer" -> Value.Tint
  | "string" | "text" | "varchar" -> Value.Tstring
  | "float" | "real" | "double" -> Value.Tfloat
  | "bool" | "boolean" -> Value.Tbool
  | t -> err "unknown type %S" t

(* (name type [not null], ...) *)
let parse_columns toks =
  let rec cols acc = function
    | Word name :: Word ty :: rest -> begin
      let ty = parse_type (kw ty) in
      match rest with
      | Word n1 :: Word n2 :: rest when kw n1 = "not" && kw n2 = "null" ->
        after (Schema.column ~nullable:false name ty :: acc) rest
      | rest -> after (Schema.column name ty :: acc) rest
    end
    | _ -> err "expected: column type [not null]"
  and after acc = function
    | Comma :: rest -> cols acc rest
    | Rpar :: rest -> (List.rev acc, rest)
    | _ -> err "expected , or ) in column list"
  in
  match toks with
  | Lpar :: rest -> cols [] rest
  | _ -> err "expected ( after table name"

(* with k=v, k=v ... *)
let parse_attrs toks =
  let value_of = function
    | Word w -> w
    | Str s -> s
    | _ -> err "expected a value after ="
  in
  let rec loop acc = function
    | [] -> (List.rev acc, [])
    | Word k :: Equals :: v :: rest -> begin
      let acc = (k, value_of v) :: acc in
      match rest with
      | Comma :: rest -> loop acc rest
      | rest -> (List.rev acc, rest)
    end
    | rest -> (List.rev acc, rest)
  in
  loop [] toks

let parse_values toks =
  let value = function
    | Str s -> Value.String s
    | Word w -> begin
      match kw w with
      | "null" -> Value.Null
      | "true" -> Value.Bool true
      | "false" -> Value.Bool false
      | _ -> begin
        match int_of_string_opt w with
        | Some n -> Value.int n
        | None -> begin
          match float_of_string_opt w with
          | Some f -> Value.Float f
          | None -> err "cannot parse value %S (quote strings)" w
        end
      end
    end
    | _ -> err "bad value"
  in
  let rec loop acc = function
    | Rpar :: rest -> (Array.of_list (List.rev acc), rest)
    | Comma :: rest -> loop acc rest
    | t :: rest -> loop (value t :: acc) rest
    | [] -> err "unterminated value list"
  in
  match toks with
  | Lpar :: rest -> loop [] rest
  | _ -> err "expected ( before values"

(* the raw statement from its first occurrence of [after] (case-insensitive)
   to the end: "prepare p1 select ..." -> "select ..." *)
let stmt_tail line ~after =
  let lower = String.lowercase_ascii line in
  let n = String.length lower and m = String.length after in
  let rec find i =
    if i + m > n then err "expected: ... %s ..." after
    else if String.sub lower i m = after then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub line i (String.length line - i)

(* everything after WHERE, as raw text for the predicate parser *)
let raw_after_where line =
  let lower = String.lowercase_ascii line in
  match
    let re = " where " in
    let rec find i =
      if i + String.length re > String.length lower then None
      else if String.sub lower i (String.length re) = re then Some i
      else find (i + 1)
    in
    find 0
  with
  | Some i -> Some (String.sub line (i + 7) (String.length line - i - 7))
  | None -> None

(* ---- record lookup for update/delete: evaluate predicate over a scan ---- *)

let keys_matching st ctx rel where =
  let desc = ok (Db.relation st.db ctx rel) in
  let filter =
    Option.map
      (fun w ->
        match Dmx_expr.Parse.parse desc.Descriptor.schema w with
        | Ok e -> e
        | Error m -> err "bad predicate: %s" m)
      where
  in
  let scan = ok (Relation.scan ctx desc ?filter ()) in
  Dmx_core.Scan_help.record_scan_to_list scan

(* select <cols|*> from <rel> [join <rel2> on <f1> = <f2>] [where ...]
   Shared by select, explain and explain analyze. [line] is the raw
   statement text (for the predicate tail), [toks] its tokens. *)
let parse_select line toks =
  match toks with
  | Word s :: rest when kw s = "select" ->
    let cols, rest =
      let rec take acc = function
        | Word f :: rest when kw f = "from" -> (List.rev acc, rest)
        | Word c :: rest -> take (c :: acc) rest
        | Comma :: rest -> take acc rest
        | _ -> err "expected: select cols from table"
      in
      take [] rest
    in
    let rel, rest =
      match rest with
      | Word r :: rest -> (r, rest)
      | _ -> err "expected table name"
    in
    let project = match cols with [ "*" ] -> None | cols -> Some cols in
    let where = raw_after_where line in
    let q =
      match rest with
      | Word j :: Word rel2 :: Word on :: Word f1 :: Equals :: Word f2 :: _
        when kw j = "join" && kw on = "on" ->
        Query.join ?where ?project rel ~on:(rel2, f1, f2)
      | _ -> Query.select ?where ?project rel
    in
    (q, project)
  | _ -> err "expected a select statement"

let print_rows schema_names rows =
  (match schema_names with
  | Some names -> Fmt.pr "%s@." (String.concat " | " names)
  | None -> ());
  List.iter (fun r -> Fmt.pr "%a@." Record.pp r) rows;
  Fmt.pr "(%d row%s)@." (List.length rows)
    (if List.length rows = 1 then "" else "s")

(* ---- query store display ---- *)

let show_statements ?top ~by () =
  let store = Dmx_obs.Emit.store () in
  let weight (e : Dmx_obs.Query_store.entry) =
    match by with
    | `Calls -> float_of_int e.e_calls
    | `Time -> Dmx_obs.Metrics.histogram_sum e.e_latency
    | `Io -> float_of_int (e.e_pool_hits + e.e_pool_misses + e.e_page_reads)
  in
  let entries =
    List.sort
      (fun a b -> compare (weight b) (weight a))
      (Dmx_obs.Query_store.entries store)
  in
  let entries =
    match top with
    | None -> entries
    | Some n -> List.filteri (fun i _ -> i < n) entries
  in
  Fmt.pr "%-16s %6s %4s %6s %10s %8s %6s %5s  %s@." "fingerprint" "calls"
    "errs" "rows" "total_us" "p95_us" "io" "plans" "statement";
  List.iter
    (fun (e : Dmx_obs.Query_store.entry) ->
      let p95 = Dmx_obs.Query_store.quantile e 0.95 in
      Fmt.pr "%016Lx %6d %4d %6d %10.1f %8.1f %6d %5d  %s@." e.e_fp e.e_calls
        e.e_errors e.e_rows
        (Dmx_obs.Metrics.histogram_sum e.e_latency)
        p95
        (e.e_pool_hits + e.e_pool_misses + e.e_page_reads)
        (List.length e.e_plans) e.e_text)
    entries;
  Fmt.pr "(%d of %d fingerprint%s; %d evicted)@." (List.length entries)
    (Dmx_obs.Query_store.size store)
    (if Dmx_obs.Query_store.size store = 1 then "" else "s")
    (Dmx_obs.Query_store.evicted store)

(* ---- telemetry sinks: <sink> on | off | reset ---- *)

let sink_verb name verb =
  let sink = List.hd (Dmx_obs.Emit.sinks_of_string name) in
  let upper = String.uppercase_ascii name in
  match verb with
  | "on" ->
    Dmx_obs.Emit.arm sink;
    let detail =
      match sink with
      | `Trace ->
        Fmt.str " (JSON Lines to %s)"
          (Option.value ~default:"stderr" (Sys.getenv_opt "DMX_TRACE_FILE"))
      | `Events ->
        let ring = Dmx_obs.Emit.ring () in
        Fmt.str " (ring of %d, slow >= %.0fus)"
          (Dmx_obs.Event_ring.capacity ring) (Dmx_obs.Event_ring.slow_us ring)
      | `Statements ->
        Fmt.str " (capacity %d)"
          (Dmx_obs.Query_store.capacity (Dmx_obs.Emit.store ()))
      | `Profile | `Metrics -> ""
    in
    Fmt.pr "%s ON%s@." upper detail
  | "off" ->
    Dmx_obs.Emit.disarm sink;
    Fmt.pr "%s OFF@." upper
  | "reset" ->
    Dmx_obs.Emit.reset sink;
    Fmt.pr "%s RESET@." upper
  | v -> err "expected: %s on | off | reset (got %S)" name v

(* ---- statement execution ---- *)

let exec_line st line =
  let toks = tokenize line in
  match toks with
  | [] -> ()
  | Word w :: rest -> begin
    match kw w, rest with
    | ("quit" | "exit"), _ -> raise Exit
    | "begin", [] ->
      if st.txn <> None then err "already in a transaction";
      st.txn <- Some (Db.begin_txn st.db);
      Fmt.pr "BEGIN@."
    | "commit", [] -> begin
      match st.txn with
      | None -> err "no transaction"
      | Some ctx ->
        st.txn <- None;
        Db.commit st.db ctx;
        Fmt.pr "COMMIT@."
    end
    | "abort", [] | "rollback", [] -> begin
      match st.txn with
      | None -> err "no transaction"
      | Some ctx ->
        st.txn <- None;
        Db.abort st.db ctx;
        Fmt.pr "ABORT@."
    end
    | "checkpoint", [] ->
      let s =
        Dmx_core.Services.checkpoint st.db.Db.services
      in
      Fmt.pr
        "CHECKPOINT lsn=%Ld written=%d active_txns=%d truncated=%d \
         records (%d bytes)@."
        s.Dmx_core.Services.ck_lsn s.Dmx_core.Services.ck_pages_written
        s.Dmx_core.Services.ck_active_txns
        s.Dmx_core.Services.ck_truncated_records
        s.Dmx_core.Services.ck_truncated_bytes
    | "savepoint", [ Word name ] -> begin
      match st.txn with
      | None -> err "savepoints need an explicit transaction (begin)"
      | Some ctx ->
        Dmx_core.Services.savepoint ctx name;
        Fmt.pr "SAVEPOINT %s@." name
    end
    | "rollback", Word t :: [ Word name ] when kw t = "to" -> begin
      match st.txn with
      | None -> err "no transaction"
      | Some ctx ->
        Dmx_core.Services.rollback_to ctx name;
        Fmt.pr "ROLLBACK TO %s@." name
    end
    | "create", Word t :: Word name :: rest when kw t = "table" ->
      let cols, rest = parse_columns rest in
      let schema =
        match Schema.make cols with Ok s -> s | Error e -> err "%s" e
      in
      let storage_method, attrs =
        match rest with
        | Word u :: Word m :: rest when kw u = "using" -> begin
          match rest with
          | Word w :: rest when kw w = "with" -> (m, fst (parse_attrs rest))
          | [] -> (m, [])
          | _ -> err "expected: with k=v, ..."
        end
        | [] -> ("heap", [])
        | _ -> err "expected: using <storage method> [with k=v, ...]"
      in
      with_ctx st (fun ctx ->
          ignore
            (ok (Db.create_relation st.db ctx ~name ~schema ~storage_method
                   ~attrs ())));
      Fmt.pr "CREATE TABLE %s (storage method %s)@." name storage_method
    | "create", Word what :: Word name :: Word on :: Word rel :: rest
      when kw on = "on"
           && List.mem (kw what) [ "index"; "constraint"; "trigger"; "attachment" ] ->
      let attachment_type, attrs =
        match rest with
        | Word u :: Word ty :: rest when kw u = "using" -> begin
          match rest with
          | Word w :: rest when kw w = "with" -> (ty, fst (parse_attrs rest))
          | [] -> (ty, [])
          | _ -> err "expected: with k=v, ..."
        end
        | _ -> err "expected: using <attachment type> [with k=v, ...]"
      in
      with_ctx st (fun ctx ->
          ok
            (Db.create_attachment st.db ctx ~relation:rel ~attachment_type
               ~name ~attrs ()));
      Fmt.pr "CREATE %s %s ON %s (%s)@."
        (String.uppercase_ascii (kw what))
        name rel attachment_type
    | "drop", Word t :: [ Word name ] when kw t = "table" ->
      with_ctx st (fun ctx -> ok (Db.drop_relation st.db ctx ~name));
      Fmt.pr "DROP TABLE %s@." name
    | "drop", Word _ :: Word name :: Word on :: Word rel :: Word u :: [ Word ty ]
      when kw on = "on" && kw u = "using" ->
      with_ctx st (fun ctx ->
          ok
            (Db.drop_attachment st.db ctx ~relation:rel ~attachment_type:ty
               ~name));
      Fmt.pr "DROP %s ON %s@." name rel
    | "insert", Word into :: Word rel :: Word v :: rest
      when kw into = "into" && kw v = "values" ->
      (* Multi-row VALUES — (..), (..), ... — goes through the bulk path:
         one authorization check, one dispatch per batch. *)
      let rec tuples acc rest =
        let record, rest = parse_values rest in
        match rest with
        | Comma :: (Lpar :: _ as more) -> tuples (record :: acc) more
        | _ -> List.rev (record :: acc)
      in
      let records = tuples [] rest in
      with_ctx st (fun ctx ->
          (* DML never builds a Query.t, so the query store sees it through
             the shell's own bracket over the raw statement text. *)
          ignore
            (Dmx_query.Stmt_obs.observed ctx ~text:line ~rows:Fun.id
               (fun ~set_plan:_ ->
                 match records with
                 | [ record ] ->
                   let key = ok (Db.insert st.db ctx ~relation:rel record) in
                   Fmt.pr "INSERT %a@." Record_key.pp key;
                   Ok 1
                 | records ->
                   let keys =
                     ok
                       (Db.insert_many st.db ctx ~relation:rel
                          (Array.of_list records))
                   in
                   Fmt.pr "INSERT %d rows@." (Array.length keys);
                   Ok (Array.length keys))))
    | "select", _ ->
      let q, project = parse_select line toks in
      with_ctx st (fun ctx ->
          let rows = ok (Db.query st.db ctx q ()) in
          print_rows (Option.map Fun.id project) rows)
    | "prepare", Word name :: Word s :: _ when kw s = "select" ->
      (* Parse once; ?N markers become Expr.Param holes that execute binds.
         Planning is deferred to first execution and then reused via the
         bound-plan cache keyed on the query shape. *)
      let stmt = stmt_tail line ~after:"select" in
      let q, project = parse_select stmt (tokenize stmt) in
      Hashtbl.replace st.prepared name (q, project);
      Fmt.pr "PREPARE %s fingerprint=%s@." name
        (Dmx_query.Fingerprint.hex (Dmx_query.Fingerprint.of_text stmt))
    | "execute", Word name :: rest -> begin
      match Hashtbl.find_opt st.prepared name with
      | None -> err "no prepared statement %S (prepare %s select ...)" name name
      | Some (q, project) ->
        let params =
          match rest with
          | [] -> [||]
          | Lpar :: _ -> fst (parse_values rest)
          | _ -> err "expected: execute %s [(v1, v2, ...)]" name
        in
        with_ctx st (fun ctx ->
            let rows = ok (Db.query st.db ctx q ~params ()) in
            print_rows project rows)
    end
    | "deallocate", [ Word name ] ->
      if not (Hashtbl.mem st.prepared name) then
        err "no prepared statement %S" name;
      Hashtbl.remove st.prepared name;
      Fmt.pr "DEALLOCATE %s@." name
    | "explain", Word a :: _ when kw a = "analyze" ->
      (* explain analyze <select ...>: execute with per-operator stats *)
      let stmt = String.sub line 16 (String.length line - 16) in
      let q, _ = parse_select stmt (tokenize stmt) in
      with_ctx st (fun ctx ->
          let rows, stats = ok (Db.explain_analyze st.db ctx q ()) in
          Fmt.pr "%a" Dmx_query.Executor.pp_analysis stats;
          Fmt.pr "(%d row%s)@." (List.length rows)
            (if List.length rows = 1 then "" else "s"))
    | "explain", _ ->
      let stmt = String.sub line 8 (String.length line - 8) in
      let q, _ = parse_select stmt (tokenize stmt) in
      with_ctx st (fun ctx ->
          Fmt.pr "plan: %s@." (ok (Db.explain st.db ctx q)))
    | "update", Word rel :: Word s :: Word col :: Equals :: v :: _
      when kw s = "set" ->
      let where = raw_after_where line in
      let new_value =
        match v with
        | Str s -> Value.String s
        | Word w -> begin
          match int_of_string_opt w with
          | Some n -> Value.int n
          | None -> (
            match float_of_string_opt w with
            | Some f -> Value.Float f
            | None -> if kw w = "null" then Value.Null else Value.String w)
        end
        | _ -> err "bad value in set"
      in
      with_ctx st (fun ctx ->
          ignore
            (Dmx_query.Stmt_obs.observed ctx ~text:line ~rows:Fun.id
               (fun ~set_plan:_ ->
                 let desc = ok (Db.relation st.db ctx rel) in
                 let fidx =
                   match Schema.field_index desc.Descriptor.schema col with
                   | Some i -> i
                   | None -> err "unknown column %S" col
                 in
                 let hits = keys_matching st ctx rel where in
                 let n = ref 0 in
                 List.iter
                   (fun (key, record) ->
                     let record = Array.copy record in
                     record.(fidx) <- new_value;
                     ignore (ok (Db.update st.db ctx ~relation:rel key record));
                     incr n)
                   hits;
                 Fmt.pr "UPDATE %d@." !n;
                 Ok !n)))
    | "delete", Word f :: Word rel :: _ when kw f = "from" ->
      let where = raw_after_where line in
      with_ctx st (fun ctx ->
          ignore
            (Dmx_query.Stmt_obs.observed ctx ~text:line ~rows:Fun.id
               (fun ~set_plan:_ ->
                 let hits = keys_matching st ctx rel where in
                 List.iter
                   (fun (key, _) ->
                     ignore (ok (Db.delete st.db ctx ~relation:rel key)))
                   hits;
                 Fmt.pr "DELETE %d@." (List.length hits);
                 Ok (List.length hits))))
    | "show", [ Word t ] when kw t = "stats" ->
      Fmt.pr "%a@." Dmx_obs.Metrics.pp_dump ()
    | "stats", [ Word t ] when kw t = "reset" ->
      Dmx_obs.Emit.reset `Metrics;
      Fmt.pr "STATS RESET@."
    | "show", [ Word t ] when kw t = "views" ->
      (* Every mounted sysview relation with its provider and live row
         count (the count runs the provider — a snapshot each). *)
      let rels =
        Dmx_catalog.Catalog.relations st.db.Db.services.Dmx_core.Services.catalog
        |> List.filter (fun (d : Descriptor.t) ->
               Dmx_core.Registry.storage_method_name d.smethod_id = "sysview")
      in
      with_ctx st (fun ctx ->
          List.iter
            (fun (d : Descriptor.t) ->
              let (module M : Dmx_core.Intf.STORAGE_METHOD) =
                Dmx_core.Registry.storage_method d.smethod_id
              in
              Fmt.pr "%-16s provider=%-12s rows=%d@." d.rel_name
                d.smethod_desc (M.record_count ctx d))
            rels);
      Fmt.pr "(%d view%s)@." (List.length rels)
        (if List.length rels = 1 then "" else "s")
    | "watch", _ ->
      (* watch <select ...> <n>: run the query n times, sleeping
         DMX_WATCH_MS (default 1000) between snapshots. *)
      let stmt, n =
        match List.rev toks with
        | Word last :: (_ :: _ as rev_stmt) -> begin
          match int_of_string_opt last with
          | Some n when n > 0 ->
            let stmt = String.sub line 6 (String.length line - 6) in
            let stmt = String.trim stmt in
            (* chop the trailing count off the raw statement text *)
            (String.trim (String.sub stmt 0 (String.length stmt - String.length last)),
             (ignore rev_stmt; n))
          | _ -> err "expected: watch <select ...> <count>"
        end
        | _ -> err "expected: watch <select ...> <count>"
      in
      let interval_ms =
        match Sys.getenv_opt "DMX_WATCH_MS" with
        | Some s -> ( match int_of_string_opt s with Some v when v >= 0 -> v | _ -> 1000)
        | None -> 1000
      in
      let q, project = parse_select stmt (tokenize stmt) in
      for i = 1 to n do
        Fmt.pr "-- watch %d/%d@." i n;
        with_ctx st (fun ctx ->
            let rows = ok (Db.query st.db ctx q ()) in
            print_rows (Option.map Fun.id project) rows);
        if i < n then Unix.sleepf (float_of_int interval_ms /. 1000.)
      done
    | "show", Word t :: rest when kw t = "statements" -> begin
      match rest with
      | [] -> show_statements ~by:`Calls ()
      | [ Word top; Word n; Word by; Word key ]
        when kw top = "top" && kw by = "by" ->
        let n =
          match int_of_string_opt n with
          | Some n when n > 0 -> n
          | _ -> err "expected a positive count after top"
        in
        let by =
          match kw key with
          | "calls" -> `Calls
          | "time" -> `Time
          | "io" -> `Io
          | k -> err "unknown sort key %S (calls|time|io)" k
        in
        show_statements ~top:n ~by ()
      | _ -> err "expected: show statements [top N by calls|time|io]"
    end
    | "show", [ Word t ] when kw t = "profile" ->
      Fmt.pr "%a" Dmx_obs.Profile.pp_report (Dmx_obs.Emit.profile ())
    | ("trace" | "events" | "profile" | "statements"), [ Word t ] ->
      sink_verb (kw w) (kw t)
    | "show", [ Word t ] when kw t = "tables" ->
      let rels =
        Dmx_catalog.Catalog.relations st.db.Db.services.Dmx_core.Services.catalog
      in
      List.iter
        (fun (d : Descriptor.t) ->
          Fmt.pr "%s (id %d, storage method %s)@." d.rel_name d.rel_id
            (Dmx_core.Registry.storage_method_name d.smethod_id))
        rels;
      Fmt.pr "(%d table%s)@." (List.length rels)
        (if List.length rels = 1 then "" else "s")
    | "show", [ Word t ] when kw t = "extensions" ->
      Fmt.pr "storage methods:@.";
      List.iter
        (fun (id, n) -> Fmt.pr "  [%d] %s@." id n)
        (Dmx_core.Registry.storage_methods ());
      Fmt.pr "attachment types:@.";
      List.iter
        (fun (id, n) -> Fmt.pr "  [%d] %s@." id n)
        (Dmx_core.Registry.attachments ())
    | "describe", [ Word name ] ->
      with_ctx st (fun ctx ->
          let desc = ok (Db.relation st.db ctx name) in
          Fmt.pr "%a@." Descriptor.pp desc)
    | verb, _ -> err "unknown or malformed statement %S" verb
  end
  | _ -> err "statements start with a keyword"

let banner =
  "dmx shell — a data management extension architecture (SIGMOD 1987)\n\
   type statements, or 'quit'. tables: create/drop/describe; attachments:\n\
   create index/constraint/trigger ... using <type> with k=v; dml:\n\
   insert/select/update/delete; prepare/execute (?N parameters); txns:\n\
   begin/commit/abort/savepoint."

let () =
  let dir = if Array.length Sys.argv > 1 then Some Sys.argv.(1) else None in
  (* The shell is interactive; counter upkeep is noise there, so metrics
     and the profiler are always on and `show stats` / `show profile`
     always have numbers. *)
  Dmx_obs.Emit.arm `Metrics;
  Dmx_obs.Emit.arm `Profile;
  Db.register_defaults ();
  let db = Db.open_database ?dir () in
  let st = { db; txn = None; prepared = Hashtbl.create 8 } in
  print_endline banner;
  (try
     while true do
       print_string "dmx> ";
       flush stdout;
       match input_line stdin with
       | exception End_of_file -> raise Exit
       | line -> begin
         match exec_line st (String.trim line) with
         | () -> ()
         | exception Shell_error msg -> Fmt.pr "error: %s@." msg
         | exception Error.Error e -> Fmt.pr "error: %s@." (Error.to_string e)
       end
     done
   with Exit -> ());
  (match st.txn with
  | Some ctx -> Db.abort st.db ctx
  | None -> ());
  Db.close db;
  print_endline "bye"
