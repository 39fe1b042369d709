(* The profile sink: per-transaction latency attribution across the
   extension architecture's component boundaries. {!Emit} hands it every
   closed span that carries an attribution key, with the total and self time
   it computed on the one span stack; this module only accumulates them in
   an attribution table keyed by (transaction, key) and renders reports. *)

type key =
  | Smethod of int
  | Attachment of int
  | Lock
  | Wal
  | Bp
  | Span of string

type entry = {
  mutable e_calls : int;
  mutable e_total_us : float;
  mutable e_self_us : float;
  mutable e_vetoes : int;
  mutable e_errors : int;
}

type t = {
  table : (int * key, entry) Hashtbl.t;
  mutable namer : key -> string option;
}

let create () = { table = Hashtbl.create 64; namer = (fun _ -> None) }
let set_key_namer t f = t.namer <- f
let reset t = Hashtbl.reset t.table

let entry_for t k =
  match Hashtbl.find_opt t.table k with
  | Some e -> e
  | None ->
    let e =
      { e_calls = 0; e_total_us = 0.; e_self_us = 0.; e_vetoes = 0;
        e_errors = 0 }
    in
    Hashtbl.replace t.table k e;
    e

let charge t ~txid key ~total_us ~self_us ~outcome =
  let e = entry_for t (txid, key) in
  e.e_calls <- e.e_calls + 1;
  e.e_total_us <- e.e_total_us +. total_us;
  e.e_self_us <- e.e_self_us +. self_us;
  match outcome with
  | "ok" -> ()
  | "veto" -> e.e_vetoes <- e.e_vetoes + 1
  | _ -> e.e_errors <- e.e_errors + 1

(* ---- naming ---- *)

let display_name t k =
  match t.namer k with
  | Some s -> s
  | None -> (
    match k with
    | Smethod i -> Printf.sprintf "smethod:#%d" i
    | Attachment i -> Printf.sprintf "attach:#%d" i
    | Lock -> "lock"
    | Wal -> "wal"
    | Bp -> "buffer-pool"
    | Span s -> "span:" ^ s)

(* ---- reporting ---- *)

type row = {
  r_name : string;
  r_calls : int;
  r_total_us : float;
  r_self_us : float;
  r_vetoes : int;
  r_errors : int;
}

(* Aggregate by display name: cross-txn reports merge same-key entries from
   different transactions. *)
let rows t ~keep =
  let byname : (string, row) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (txid, key) e ->
      if keep txid then begin
        let name = display_name t key in
        let r =
          match Hashtbl.find_opt byname name with
          | Some r -> r
          | None ->
            { r_name = name; r_calls = 0; r_total_us = 0.; r_self_us = 0.;
              r_vetoes = 0; r_errors = 0 }
        in
        Hashtbl.replace byname name
          {
            r with
            r_calls = r.r_calls + e.e_calls;
            r_total_us = r.r_total_us +. e.e_total_us;
            r_self_us = r.r_self_us +. e.e_self_us;
            r_vetoes = r.r_vetoes + e.e_vetoes;
            r_errors = r.r_errors + e.e_errors;
          }
      end)
    t.table;
  Hashtbl.fold (fun _ r acc -> r :: acc) byname []
  |> List.sort (fun a b -> compare b.r_self_us a.r_self_us)

let report t = rows t ~keep:(fun _ -> true)
let txn_report t txid = rows t ~keep:(fun t' -> t' = txid)

let txids t =
  Hashtbl.fold (fun (txid, _) _ acc -> txid :: acc) t.table []
  |> List.sort_uniq compare

let pp_rows ppf rows =
  let render r =
    [
      r.r_name;
      string_of_int r.r_calls;
      Report_txt.fmt_us r.r_total_us;
      Report_txt.fmt_us r.r_self_us;
      string_of_int r.r_vetoes;
      string_of_int r.r_errors;
    ]
  in
  Report_txt.pp_table
    ~columns:
      [
        ("component", Report_txt.L);
        ("calls", Report_txt.R);
        ("total", Report_txt.R);
        ("self", Report_txt.R);
        ("vetoes", Report_txt.R);
        ("errors", Report_txt.R);
      ]
    ppf (List.map render rows)

let pp_report ppf t =
  match report t with
  | [] -> Fmt.pf ppf "profile: no samples (is profiling on?)@."
  | rows ->
    Fmt.pf ppf "profile: attribution by self time, all transactions@.";
    pp_rows ppf rows;
    List.iter
      (fun txid ->
        match txn_report t txid with
        | [] -> ()
        | rows ->
          Fmt.pf ppf "transaction %d:@." txid;
          pp_rows ppf rows)
      (List.filter (fun txid -> txid <> 0) (txids t))
