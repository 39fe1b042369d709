type txid = int

module Imap = Map.Make (Int)

let find_cycle edges =
  (* adjacency *)
  let adj =
    List.fold_left
      (fun m (a, b) ->
        Imap.update a
          (function None -> Some [ b ] | Some bs -> Some (b :: bs))
          m)
      Imap.empty edges
  in
  let nodes = Imap.bindings adj |> List.map fst in
  (* DFS with colouring; on back edge, reconstruct the cycle from the stack. *)
  let color = Hashtbl.create 16 in
  let result = ref None in
  let rec dfs stack node =
    match Hashtbl.find_opt color node with
    | Some `Done -> ()
    | Some `Active ->
      (* back edge onto [node]: stack holds path ... node ... current *)
      let rec take acc = function
        | [] -> acc
        | n :: rest -> if n = node then n :: acc else take (n :: acc) rest
      in
      if !result = None then result := Some (take [] stack)
    | None ->
      Hashtbl.replace color node `Active;
      let succs = Option.value ~default:[] (Imap.find_opt node adj) in
      List.iter
        (fun s -> if !result = None then dfs (node :: stack) s)
        succs;
      Hashtbl.replace color node `Done
  in
  List.iter (fun n -> if !result = None then dfs [] n) nodes;
  !result

let choose_victim cycle =
  match cycle with
  | [] -> invalid_arg "Deadlock.choose_victim: empty cycle"
  | first :: rest -> List.fold_left max first rest

let m_checks = Dmx_obs.Metrics.counter "deadlock.checks"
let m_victims = Dmx_obs.Metrics.counter "deadlock.victims"

let detect table =
  Dmx_obs.Metrics.incr m_checks;
  match find_cycle (Lock_table.all_edges table) with
  | None -> None
  | Some cycle ->
    let victim = choose_victim cycle in
    Dmx_obs.Metrics.incr m_victims;
    if Dmx_obs.Emit.active () then
      Dmx_obs.Emit.event "deadlock.victim" ~txid:victim
        ~attrs:
          [ ("victim", Dmx_obs.Obs_json.Int victim);
            ( "cycle",
              Dmx_obs.Obs_json.List
                (List.map (fun tx -> Dmx_obs.Obs_json.Int tx) cycle) ) ];
    Some victim
