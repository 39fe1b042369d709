open Dmx_value

type lsn = int64

let no_lsn = 0L

type txid = int

type source =
  | Smethod of int
  | Attachment of int
  | Catalog

type kind =
  | Commit
  | Abort
  | Ext of { source : source; rel_id : int; data : string }
  | Clr of { undone : lsn }
  | Checkpoint of { active : txid list; next_txid : txid }

type t = { lsn : lsn; txid : txid; kind : kind }

let encode e txid kind =
  let open Codec.Enc in
  varint e txid;
  match kind with
  | Commit -> byte e 1
  | Abort -> byte e 2
  | Ext { source; rel_id; data } ->
    byte e 3;
    (match source with
    | Smethod id ->
      byte e 0;
      varint e id
    | Attachment id ->
      byte e 1;
      varint e id
    | Catalog -> byte e 2);
    varint e rel_id;
    string e data
  | Clr { undone } ->
    byte e 4;
    int64 e undone
  | Checkpoint { active; next_txid } ->
    byte e 5;
    list e varint active;
    varint e next_txid

exception Malformed of string

let decode d =
  let open Codec.Dec in
  let txid = varint d in
  let kind =
    match byte d with
    | 1 -> Commit
    | 2 -> Abort
    | 3 ->
      let source =
        match byte d with
        | 0 -> Smethod (varint d)
        | 1 -> Attachment (varint d)
        | 2 -> Catalog
        | n -> raise (Malformed (Fmt.str "bad source tag %d" n))
      in
      let rel_id = varint d in
      let data = string d in
      Ext { source; rel_id; data }
    | 4 -> Clr { undone = int64 d }
    | 5 ->
      let active = list d varint in
      Checkpoint { active; next_txid = varint d }
    | n -> raise (Malformed (Fmt.str "bad kind tag %d" n))
  in
  (txid, kind)

let pp_source ppf = function
  | Smethod id -> Fmt.pf ppf "smethod:%d" id
  | Attachment id -> Fmt.pf ppf "attach:%d" id
  | Catalog -> Fmt.string ppf "catalog"

let pp_kind ppf = function
  | Commit -> Fmt.string ppf "COMMIT"
  | Abort -> Fmt.string ppf "ABORT"
  | Ext { source; rel_id; data } ->
    Fmt.pf ppf "EXT %a rel=%d (%d bytes)" pp_source source rel_id
      (String.length data)
  | Clr { undone } -> Fmt.pf ppf "CLR undone=%Ld" undone
  | Checkpoint { active; next_txid } ->
    Fmt.pf ppf "CHECKPOINT active=[%a] next_txid=%d"
      Fmt.(list ~sep:(any ",") int)
      active next_txid

let pp ppf t = Fmt.pf ppf "%Ld tx%d %a" t.lsn t.txid pp_kind t.kind
