type counter = { c_name : string; mutable c_value : int }

type histogram = {
  h_name : string;
  h_bounds : float array;  (* ascending upper bounds; overflow bucket last *)
  h_counts : int array;  (* length = Array.length h_bounds + 1 *)
  mutable h_sum : float;
  mutable h_total : int;
}

(* Armed by [DMX_OBS] (see [Emit], which also arms it alongside the trace
   and statements sinks) or [set_enabled]. *)
let on = ref false [@@dmx.global "config-immutable-after-setup"]
let enabled () = !on
let set_enabled b = on := b

let counters : (string, counter) Hashtbl.t = Hashtbl.create 64 [@@dmx.global "config-immutable-after-setup"]
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16 [@@dmx.global "config-immutable-after-setup"]
let probes : (string, unit -> (string * int) list) Hashtbl.t = Hashtbl.create 8 [@@dmx.global "config-immutable-after-setup"]

(* Per-probe sample values captured by [reset]: probes mirror state owned
   elsewhere, so a reset subtracts instead of zeroing. *)
let baselines : (string, (string * int) list) Hashtbl.t = Hashtbl.create 8 [@@dmx.global "config-immutable-after-setup"]

let counter name =
  match Hashtbl.find_opt counters name with
  | Some c -> c
  | None ->
    let c = { c_name = name; c_value = 0 } in
    Hashtbl.replace counters name c;
    c

let incr c = if !on then c.c_value <- c.c_value + 1
let add c n = if !on then c.c_value <- c.c_value + n
let value c = c.c_value

let default_latency_buckets_us =
  [| 1.; 5.; 10.; 50.; 100.; 500.; 1_000.; 5_000.; 10_000.; 50_000.;
     100_000.; 500_000.; 1_000_000. |] [@@dmx.global "config-immutable-after-setup"]

let unregistered_histogram ?(buckets = default_latency_buckets_us) name =
  {
    h_name = name;
    h_bounds = Array.copy buckets;
    h_counts = Array.make (Array.length buckets + 1) 0;
    h_sum = 0.;
    h_total = 0;
  }

let histogram ?(buckets = default_latency_buckets_us) name =
  match Hashtbl.find_opt histograms name with
  | Some h -> h
  | None ->
    let h = unregistered_histogram ~buckets name in
    Hashtbl.replace histograms name h;
    h

let record h v =
  let n = Array.length h.h_bounds in
  let i = ref 0 in
  while !i < n && v > h.h_bounds.(!i) do
    Stdlib.incr i
  done;
  h.h_counts.(!i) <- h.h_counts.(!i) + 1;
  h.h_sum <- h.h_sum +. v;
  h.h_total <- h.h_total + 1

let observe h v = if !on then record h v

let quantile h q =
  if h.h_total = 0 || Array.length h.h_bounds = 0 then None
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let target = q *. float_of_int h.h_total in
    let n = Array.length h.h_bounds in
    let rec find i cum =
      if i > n then Some h.h_bounds.(n - 1) (* overflow: clamp to last bound *)
      else
        let cum' = cum + h.h_counts.(i) in
        if float_of_int cum' >= target && h.h_counts.(i) > 0 then
          if i = n then Some h.h_bounds.(n - 1)
          else
            (* linear interpolation within the bucket [lo, bound] *)
            let lo = if i = 0 then 0. else h.h_bounds.(i - 1) in
            let hi = h.h_bounds.(i) in
            let inside = (target -. float_of_int cum) /. float_of_int h.h_counts.(i) in
            Some (lo +. ((hi -. lo) *. Float.max 0. inside))
        else find (i + 1) cum'
    in
    find 0 0
  end

let histogram_buckets h = Array.copy h.h_bounds
let histogram_counts h = Array.copy h.h_counts
let histogram_count h = h.h_total
let histogram_sum h = h.h_sum

(* A replaced probe reads fresh state, so its old baseline no longer
   applies. *)
let register_probe name f =
  Hashtbl.replace probes name f;
  Hashtbl.remove baselines name

let probe_samples name f =
  match Hashtbl.find_opt baselines name with
  | None -> f ()
  | Some base ->
    List.map
      (fun (k, v) -> (k, v - Option.value ~default:0 (List.assoc_opt k base)))
      (f ())

let snapshot () =
  let native =
    Hashtbl.fold (fun name c acc -> (name, c.c_value) :: acc) counters []
  in
  let probed =
    Hashtbl.fold (fun name f acc -> probe_samples name f @ acc) probes []
  in
  List.sort compare (native @ probed)

let sorted_histograms () =
  Hashtbl.fold (fun _ h acc -> h :: acc) histograms []
  |> List.sort (fun a b -> String.compare a.h_name b.h_name)

let all_histograms () = List.map (fun h -> (h.h_name, h)) (sorted_histograms ())

let pp_dump ppf () =
  Fmt.pf ppf "counters:@.";
  List.iter (fun (name, v) -> Fmt.pf ppf "  %-36s %d@." name v) (snapshot ());
  match sorted_histograms () with
  | [] -> ()
  | hs ->
    Fmt.pf ppf "histograms:@.";
    List.iter
      (fun h ->
        let mean = if h.h_total = 0 then 0. else h.h_sum /. float_of_int h.h_total in
        let qs =
          match (quantile h 0.50, quantile h 0.95, quantile h 0.99) with
          | Some p50, Some p95, Some p99 ->
            Fmt.str " p50=%.1f p95=%.1f p99=%.1f" p50 p95 p99
          | _ -> ""
        in
        Fmt.pf ppf "  %-36s count=%d mean=%.1f%s@." h.h_name h.h_total mean qs;
        if h.h_total > 0 then begin
          Array.iteri
            (fun i c ->
              if c > 0 then Fmt.pf ppf "    le %12.1f  %d@." h.h_bounds.(i) c)
            (Array.sub h.h_counts 0 (Array.length h.h_bounds));
          let over = h.h_counts.(Array.length h.h_bounds) in
          if over > 0 then Fmt.pf ppf "    overflow       %d@." over
        end)
      hs

let to_json () =
  let open Obs_json in
  let counters = Obj (List.map (fun (k, v) -> (k, Int v)) (snapshot ())) in
  let histograms =
    Obj
      (List.map
         (fun h ->
           ( h.h_name,
             Obj
               [
                 ("buckets", List (Array.to_list (Array.map (fun b -> Float b) h.h_bounds)));
                 ("counts", List (Array.to_list (Array.map (fun c -> Int c) h.h_counts)));
                 ("sum", Float h.h_sum);
                 ("count", Int h.h_total);
               ] ))
         (sorted_histograms ()))
  in
  to_string (Obj [ ("counters", counters); ("histograms", histograms) ])

let reset () =
  Hashtbl.iter (fun _ c -> c.c_value <- 0) counters;
  Hashtbl.iter
    (fun _ h ->
      Array.fill h.h_counts 0 (Array.length h.h_counts) 0;
      h.h_sum <- 0.;
      h.h_total <- 0)
    histograms;
  Hashtbl.iter (fun name f -> Hashtbl.replace baselines name (f ())) probes
