open Dmx_value

type lsn = int64

let no_lsn = 0L

type txid = int

type source =
  | Smethod of int
  | Attachment of int
  | Catalog

type kind =
  | Begin
  | Commit
  | Abort
  | Ext of { source : source; rel_id : int; data : string }
  | Clr of { undone : lsn }
  | Checkpoint of { active : txid list }

type t = { lsn : lsn; txid : txid; kind : kind }

let encode e txid kind =
  let open Codec.Enc in
  varint e txid;
  match kind with
  | Begin -> byte e 0
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
  | Checkpoint { active } ->
    byte e 5;
    list e varint active

let decode d =
  let open Codec.Dec in
  let txid = varint d in
  let kind =
    match byte d with
    | 0 -> Begin
    | 1 -> Commit
    | 2 -> Abort
    | 3 ->
      let source =
        match byte d with
        | 0 -> Smethod (varint d)
        | 1 -> Attachment (varint d)
        | 2 -> Catalog
        | n -> failwith (Fmt.str "Log_record: bad source tag %d" n)
      in
      let rel_id = varint d in
      let data = string d in
      Ext { source; rel_id; data }
    | 4 -> Clr { undone = int64 d }
    | 5 -> Checkpoint { active = list d varint }
    | n -> failwith (Fmt.str "Log_record: bad kind tag %d" n)
  in
  (txid, kind)

let pp_source ppf = function
  | Smethod id -> Fmt.pf ppf "smethod:%d" id
  | Attachment id -> Fmt.pf ppf "attach:%d" id
  | Catalog -> Fmt.string ppf "catalog"

let pp_kind ppf = function
  | Begin -> Fmt.string ppf "BEGIN"
  | Commit -> Fmt.string ppf "COMMIT"
  | Abort -> Fmt.string ppf "ABORT"
  | Ext { source; rel_id; data } ->
    Fmt.pf ppf "EXT %a rel=%d (%d bytes)" pp_source source rel_id
      (String.length data)
  | Clr { undone } -> Fmt.pf ppf "CLR undone=%Ld" undone
  | Checkpoint { active } ->
    Fmt.pf ppf "CHECKPOINT active=[%a]" Fmt.(list ~sep:(any ",") int) active

let pp ppf t = Fmt.pf ppf "%Ld tx%d %a" t.lsn t.txid pp_kind t.kind
