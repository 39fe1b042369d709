type t = { io : float; cpu : float }

let zero = { io = 0.; cpu = 0. }
let make ~io ~cpu = { io; cpu }
let add a b = { io = a.io +. b.io; cpu = a.cpu +. b.cpu }
let scale k { io; cpu } = { io = k *. io; cpu = k *. cpu }

let io_weight = 1000.

let total { io; cpu } = (io *. io_weight) +. cpu
let compare a b = Float.compare (total a) (total b)
let pp ppf t = Fmt.pf ppf "io=%.1f cpu=%.0f (total %.0f)" t.io t.cpu (total t)

type estimate = {
  cost : t;
  est_rows : float;
  matched : Dmx_expr.Expr.t list;
  residual : Dmx_expr.Expr.t list;
  ordered_by : int array option;
}
