type stats = {
  translations : int;
  hits : int;
  invalidations : int;
}

type t = {
  table : (string, Plan.t) Hashtbl.t;
  (* hash of each cached plan's describe line, for the query store's
     plan-change detection; written at bind time so hits stay hash-free *)
  plan_hashes : (string, int64) Hashtbl.t;
  mutable translations : int;
  mutable hits : int;
  mutable invalidations : int;
}

let create () =
  let t =
    {
      table = Hashtbl.create 32;
      plan_hashes = Hashtbl.create 32;
      translations = 0;
      hits = 0;
      invalidations = 0;
    }
  in
  (* Replace-on-reregister: the latest cache created owns the exposition
     name. *)
  Dmx_obs.Metrics.register_probe "plan_cache" (fun () ->
      [ ("plan_cache.translations", t.translations);
        ("plan_cache.hits", t.hits);
        ("plan_cache.invalidations", t.invalidations) ]);
  t

let ( let* ) = Result.bind

let bind t ctx q key =
  let* plan =
    Dmx_core.Ctx.with_span ctx "plan.translate"
      ~attrs:[ ("key", Dmx_obs.Obs_json.Str key) ] (fun () ->
        Planner.translate ctx q)
  in
  t.translations <- t.translations + 1;
  Hashtbl.replace t.table key plan;
  Hashtbl.replace t.plan_hashes key (Fingerprint.hash (Plan.describe plan));
  Ok plan

let plan_for t ctx q =
  let key = Query.key q in
  match Hashtbl.find_opt t.table key with
  | None -> bind t ctx q key
  | Some plan ->
    if Plan.valid ctx plan then begin
      t.hits <- t.hits + 1;
      Dmx_core.Ctx.trace_event ctx "plan.hit"
        ~attrs:[ ("key", Dmx_obs.Obs_json.Str key) ];
      Ok plan
    end
    else begin
      t.invalidations <- t.invalidations + 1;
      Dmx_core.Ctx.trace_event ctx "plan.invalidated"
        ~attrs:[ ("key", Dmx_obs.Obs_json.Str key) ];
      bind t ctx q key
    end

(* Bracket one query-path execution with the statement observer: the
   fingerprint comes from [Query.key] (already literal-bearing text), the
   plan hash from the side table [bind] maintains. [row_count] projects the
   success value so [execute] and [analyze] share the bracket; the inactive
   path never computes the key a second time. *)
let with_stmt_obs t ctx q ~row_count run =
  if not (Dmx_obs.Emit.active ()) then run ~set_plan:ignore
  else begin
    let key = Query.key q in
    Stmt_obs.observed ctx ~text:key ~rows:row_count (fun ~set_plan ->
        run ~set_plan:(fun () ->
            match Hashtbl.find_opt t.plan_hashes key with
            | Some h -> set_plan h
            | None -> ()))
  end

let execute t ctx q ?params () =
  with_stmt_obs t ctx q ~row_count:List.length (fun ~set_plan ->
      let* plan = plan_for t ctx q in
      set_plan ();
      Executor.run ctx plan ?params ())

let explain t ctx q =
  let* plan = plan_for t ctx q in
  Ok (Plan.describe plan)

let analyze t ctx q ?params () =
  with_stmt_obs t ctx q
    ~row_count:(fun (rows, _) -> List.length rows)
    (fun ~set_plan ->
      let* plan = plan_for t ctx q in
      set_plan ();
      Executor.analyze ctx plan ?params ())

let peek t q = Hashtbl.find_opt t.table (Query.key q)

let entries t = Hashtbl.fold (fun key plan acc -> (key, plan) :: acc) t.table []
let stats t =
  { translations = t.translations; hits = t.hits; invalidations = t.invalidations }

let reset_stats t =
  t.translations <- 0;
  t.hits <- 0;
  t.invalidations <- 0
