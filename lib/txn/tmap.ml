type binding = ..

(* A key is its own extension constructor: [proj] recognises exactly the
   bindings [inj] made, so no counter is needed to tell keys apart. *)
type 'a key = {
  name : string;
  inj : 'a -> binding;
  proj : binding -> 'a option;
}

let new_key (type a) name : a key =
  let module M = struct
    type binding += K of a
  end in
  {
    name;
    inj = (fun v -> M.K v);
    proj = (function M.K v -> Some v | _ -> None);
  }

type t = binding list

let empty = []
let find key t = List.find_map key.proj t
let mem key t = List.exists (fun b -> key.proj b <> None) t
let remove key t = List.filter (fun b -> key.proj b = None) t
let add key v t = key.inj v :: remove key t
