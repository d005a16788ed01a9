(* The compiled (packed) dataplane: the Section 5 forwarder contract over
   id-dense flat arrays instead of hashtables of boxed keys.

   Layout (see DESIGN.md §11):
   - entities share one id counter; per-kind attribute arrays are indexed
     by the raw id, forwarders additionally get a dense index
   - rules live in one target arena: parallel [tgt]/[w]/[cum] arrays plus
     per-slot (offset, length, total); per-forwarder tx/rx maps are plain
     arrays indexed by an interned (chain, egress, stage) id, so a rule
     lookup is two array reads
   - cumulative weights are precomputed at install time
     ({!Balancer.cumulative}), so a balancer draw is one RNG advance and a
     binary search — bit-identical to {!Balancer.pick} over the same rule
   - connection state is an open-addressed table of int-packed flow keys
     (hash of labels + stage + 5-tuple), with per-connection chains for
     O(stages) teardown, stored as packed [Bytes] columns the GC does not
     scan (32 B a cell); Replicated mode keeps the same stores per DHT
     node under a consistent-hash ring
   - dynamic mutations (rule reinstall, weight change, fail/revive/
     reattach) append to the arena / patch the arrays in place — a
     mutation journal rather than a recompile; the arena compacts itself
     when dead rule targets dominate

   Behavioural contract: every observable (traces, errors, counters, flow
   table sizes, RNG draw sequence) is bit-identical to the seed
   implementation preserved in {!Legacy_fabric}; the equivalence qcheck in
   [test_dataplane.ml] drives both in lockstep. The one intentional
   exception: DHT key *placement* uses the packed key hash, not the seed's
   structural hash. Placement is unobservable through this API — the ring
   re-replicates on every membership change, so any single forwarder
   failure loses nothing at replication >= 2, whichever nodes held the
   key. *)

type endpoint = Edge of int | Forwarder of int | Vnf_instance of int

type flow_store = Local | Replicated of int

type error =
  | No_rule of { forwarder : int; stage : int }
  | No_reverse_entry of { forwarder : int; stage : int }
  | Instance_down of int
  | Forwarder_down of int
  | Ttl_exceeded
  | Not_an_edge

let pp_error ppf = function
  | No_rule { forwarder; stage } ->
    Format.fprintf ppf "no rule at forwarder %d for stage %d" forwarder stage
  | No_reverse_entry { forwarder; stage } ->
    Format.fprintf ppf "no reverse flow entry at forwarder %d for stage %d" forwarder stage
  | Instance_down i -> Format.fprintf ppf "VNF instance %d is down" i
  | Forwarder_down f -> Format.fprintf ppf "forwarder %d is down" f
  | Ttl_exceeded -> Format.fprintf ppf "TTL exceeded (rule loop?)"
  | Not_an_edge -> Format.fprintf ppf "injection point is not an edge"

(* ------------------------- packed endpoints ------------------------- *)

let tag_edge = 1
let tag_fwd = 2
let tag_inst = 3

let pack = function
  | Edge i -> (i lsl 2) lor tag_edge
  | Forwarder i -> (i lsl 2) lor tag_fwd
  | Vnf_instance i -> (i lsl 2) lor tag_inst

let max_int32 = 0x7FFF_FFFF

(* Largest entity id whose packed endpoint fits an int32. *)
let max_id = (max_int32 - tag_inst) lsr 2

(* A rule target is what a flow-table cell's [fnx] slot stores. An id
   outside [0, max_id] names no entity ({!fresh} never allocates one). *)
let pack_target e =
  match e with
  | Edge i | Forwarder i | Vnf_instance i ->
    if i < 0 || i > max_id then invalid_arg "Plane: rule target id out of range";
    pack e

let unpack pe =
  match pe land 3 with
  | 1 -> Edge (pe lsr 2)
  | 2 -> Forwarder (pe lsr 2)
  | _ -> Vnf_instance (pe lsr 2)

(* --------------------------- packed keys ---------------------------- *)

(* A flow key is the avalanche hash of (chain, egress, role stage,
   5-tuple), clamped to >= 2 so 0/1 can mark empty/tombstone table cells.
   Distinct keys colliding in 61 bits is astronomically unlikely at
   simulation scale; the compiled tables accept that in exchange for
   never boxing a key. *)

let key_base ~chain_label ~egress_label fh =
  Packet.mix (fh lxor Packet.mix ((chain_label * 0x9E3779B1) lxor egress_label))

let key_hash base stage =
  let h = Packet.mix (base lxor (stage * 0x85EBCA6B)) in
  if h < 2 then h + 2 else h

(* ------------------------- packed columns --------------------------- *)

(* The connection tables keep their per-cell fields in [Bytes] columns
   rather than [int array]s: 8-byte slots for the 63-bit hashes, 4-byte
   slots for everything that fits an int32 (packed endpoints, cell
   indices, the logical clock). Bytes live on the OCaml heap, so they
   count in its size, but the major GC never scans them, and a flow-table
   cell takes 32 B where six [int array] words took 48 B.

   A 4-byte store never checks its value: each range is checked once,
   where the value enters. Packed endpoints are checked at id allocation
   ({!fresh}) and rule install ({!pack_target}), cell indices at table
   growth ({!max_cells}), and the clock in {!set_clock}.

   The [*u] accessors skip the bounds check. They are used only at an
   index of the form [x land fmask] (or [land mmask]), or at a probe
   position returned by a find/place loop that only ever steps that way,
   so the index is below the column's cell count by construction. Every
   other access (capacity scans, indices read back from [flink] or the
   heads map) is checked. *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let[@inline] ld8 b i = Int64.to_int (get64 b (i lsl 3))
let[@inline] ld8u b i = Int64.to_int (get64u b (i lsl 3))
let[@inline] st8 b i v = set64 b (i lsl 3) (Int64.of_int v)
let[@inline] st8u b i v = set64u b (i lsl 3) (Int64.of_int v)
let[@inline] ld4 b i = Int32.to_int (get32 b (i lsl 2))
let[@inline] ld4u b i = Int32.to_int (get32u b (i lsl 2))
let[@inline] st4 b i v = set32 b (i lsl 2) (Int32.of_int v)
let[@inline] st4u b i v = set32u b (i lsl 2) (Int32.of_int v)

(* A fresh column of [n] cells: zeroed for the key columns, whose 0 marks
   an empty cell; left unfilled for the others, which are read only at
   cells that hold a key and so were written first. *)
let col8_zero n = Bytes.make (n * 8) '\000'
let col8 n = Bytes.create (n * 8)
let col4 n = Bytes.create (n * 4)

(* Cell indices ([flink], the heads map's values) are stored in 4 bytes,
   so a table holds at most 2^31 cells. *)
let max_cells = max_int32 + 1

(* ------------------ open-addressed int -> int map ------------------- *)

(* Used for the per-connection chain heads of a flow table. Cell states in
   [mk] (8-byte keys): 0 empty, 1 tombstone, else the key (>= 2). [mv]
   holds 4-byte flow-table cell indices. *)
type fmap = {
  mutable mmask : int;
  mutable mn : int;
  mutable mtomb : int;
  mutable mk : Bytes.t;
  mutable mv : Bytes.t;
}

let fmap_create cap = { mmask = cap - 1; mn = 0; mtomb = 0; mk = col8_zero cap; mv = col4 cap }

let fmap_find m k =
  let mk = m.mk and mask = m.mmask in
  let i = ref (k land mask) in
  let r = ref (-2) in
  while !r = -2 do
    let c = ld8u mk !i in
    if c = 0 then r := -1
    else if c = k then r := ld4u m.mv !i
    else i := (!i + 1) land mask
  done;
  !r

let rec fmap_put m k v =
  if (m.mn + m.mtomb + 1) * 4 > (m.mmask + 1) * 3 then begin
    let ok = m.mk and ov = m.mv and ocap = m.mmask + 1 in
    let cap = if (m.mn + 1) * 2 > ocap then ocap * 2 else ocap in
    m.mk <- col8_zero cap;
    m.mv <- col4 cap;
    m.mmask <- cap - 1;
    m.mn <- 0;
    m.mtomb <- 0;
    for i = 0 to ocap - 1 do
      let c = ld8 ok i in
      if c >= 2 then fmap_put m c (ld4 ov i)
    done
  end;
  let mk = m.mk and mask = m.mmask in
  let i = ref (k land mask) in
  let ins = ref (-1) in
  let fin = ref false in
  while not !fin do
    let c = ld8u mk !i in
    if c = k then begin
      st4u m.mv !i v;
      fin := true;
      ins := -1
    end
    else if c = 0 then fin := true
    else begin
      if c = 1 && !ins < 0 then ins := !i;
      i := (!i + 1) land mask
    end
  done;
  if ld8u mk !i <> k then begin
    let at = if !ins >= 0 then !ins else !i in
    if ld8u mk at = 1 then m.mtomb <- m.mtomb - 1;
    st8u mk at k;
    st4u m.mv at v;
    m.mn <- m.mn + 1
  end

let fmap_remove m k =
  let mk = m.mk and mask = m.mmask in
  let i = ref (k land mask) in
  let fin = ref false in
  while not !fin do
    let c = ld8u mk !i in
    if c = 0 then fin := true
    else if c = k then begin
      st8u mk !i 1;
      m.mtomb <- m.mtomb + 1;
      m.mn <- m.mn - 1;
      fin := true
    end
    else i := (!i + 1) land mask
  done

let fmap_clear m =
  Bytes.fill m.mk 0 (Bytes.length m.mk) '\000';
  m.mn <- 0;
  m.mtomb <- 0

(* ----------------------- packed flow table -------------------------- *)

(* Parallel columns per cell: key hash ([hk], 8 B: 0 empty, 1 tombstone),
   packed next/prev endpoints ([fnx]/[fpv], 4 B), the connection hash
   ([ffh], 8 B), the next cell of the same connection ([flink], 4 B; -1
   ends the chain) for O(stages) teardown, and the logical clock of the
   cell's last activity ([fage], 4 B) for idle expiry: 32 B a cell.
   [fdisp.(d)] counts the live cells [d] slots past their home slot, so
   the longest probe is read off its top non-empty bucket instead of a
   scan of every slot. *)
type ftab = {
  mutable fcap : int;
  mutable fmask : int;
  mutable fn : int;
  mutable ftomb : int;
  mutable hk : Bytes.t;
  mutable fnx : Bytes.t;
  mutable fpv : Bytes.t;
  mutable ffh : Bytes.t;
  mutable flink : Bytes.t;
  mutable fage : Bytes.t;
  mutable fdisp : int array;
  heads : fmap;
}

let ftab_create () =
  let cap = 64 in
  {
    fcap = cap;
    fmask = cap - 1;
    fn = 0;
    ftomb = 0;
    hk = col8_zero cap;
    fnx = col4 cap;
    fpv = col4 cap;
    ffh = col8 cap;
    flink = col4 cap;
    fage = col4 cap;
    fdisp = Array.make 16 0;
    heads = fmap_create cap;
  }

let ftab_find tab h =
  let hk = tab.hk and mask = tab.fmask in
  let i = ref (h land mask) in
  let r = ref (-2) in
  while !r = -2 do
    let c = ld8u hk !i in
    if c = 0 then r := -1
    else if c = h then r := !i
    else i := (!i + 1) land mask
  done;
  !r

(* Raw insert of a key known to be absent; chain linking is the caller's
   job (used by grow, which relinks everything anyway). *)
let ftab_place tab h fh nxt prv =
  let hk = tab.hk and mask = tab.fmask in
  let home = h land mask in
  let i = ref home in
  while ld8u hk !i >= 2 do
    i := (!i + 1) land mask
  done;
  let i = !i in
  if ld8u hk i = 1 then tab.ftomb <- tab.ftomb - 1;
  let d = (i - home) land mask in
  if d >= Array.length tab.fdisp then begin
    let b = Array.make (max (d + 1) (2 * Array.length tab.fdisp)) 0 in
    Array.blit tab.fdisp 0 b 0 (Array.length tab.fdisp);
    tab.fdisp <- b
  end;
  tab.fdisp.(d) <- tab.fdisp.(d) + 1;
  st8u hk i h;
  st4u tab.fnx i nxt;
  st4u tab.fpv i prv;
  st8u tab.ffh i fh;
  st4u tab.flink i (-1);
  tab.fn <- tab.fn + 1;
  i

let ftab_grow tab =
  let ohk = tab.hk and onx = tab.fnx and opv = tab.fpv and ofh = tab.ffh in
  let ofa = tab.fage and ocap = tab.fcap in
  let cap = if (tab.fn + 1) * 2 > ocap then ocap * 2 else ocap in
  if cap > max_cells then invalid_arg "Plane: flow table would exceed 2^31 cells";
  tab.fcap <- cap;
  tab.fmask <- cap - 1;
  tab.fn <- 0;
  tab.ftomb <- 0;
  tab.hk <- col8_zero cap;
  tab.fnx <- col4 cap;
  tab.fpv <- col4 cap;
  tab.ffh <- col8 cap;
  tab.flink <- col4 cap;
  tab.fage <- col4 cap;
  Array.fill tab.fdisp 0 (Array.length tab.fdisp) 0;
  fmap_clear tab.heads;
  for i = 0 to ocap - 1 do
    let h = ld8 ohk i in
    if h >= 2 then begin
      let fh = ld8 ofh i in
      let s = ftab_place tab h fh (ld4 onx i) (ld4 opv i) in
      st4u tab.fage s (ld4 ofa i);
      st4u tab.flink s (fmap_find tab.heads fh);
      fmap_put tab.heads fh s
    end
  done

let ftab_set tab h fh nxt prv age =
  let s = ftab_find tab h in
  if s >= 0 then begin
    st4u tab.fnx s nxt;
    st4u tab.fpv s prv;
    st4u tab.fage s age
  end
  else begin
    if (tab.fn + tab.ftomb + 1) * 4 > tab.fcap * 3 then ftab_grow tab;
    let s = ftab_place tab h fh nxt prv in
    st4u tab.fage s age;
    st4u tab.flink s (fmap_find tab.heads fh);
    fmap_put tab.heads fh s
  end

let ftab_remove_flow tab fh =
  let s = ref (fmap_find tab.heads fh) in
  if !s >= 0 then begin
    while !s >= 0 do
      let nxt = ld4 tab.flink !s in
      let h = ld8 tab.hk !s in
      if h >= 2 then begin
        let d = (!s - (h land tab.fmask)) land tab.fmask in
        tab.fdisp.(d) <- tab.fdisp.(d) - 1;
        st8 tab.hk !s 1;
        tab.ftomb <- tab.ftomb + 1;
        tab.fn <- tab.fn - 1
      end;
      s := nxt
    done;
    fmap_remove tab.heads fh
  end

let ftab_clear tab =
  Bytes.fill tab.hk 0 (Bytes.length tab.hk) '\000';
  Array.fill tab.fdisp 0 (Array.length tab.fdisp) 0;
  tab.fn <- 0;
  tab.ftomb <- 0;
  fmap_clear tab.heads

(* Idle expiry: remove every connection whose cells were all last touched
   before [idle_before]. Any packet of a connection stamps every one of
   its cells in the tables it traverses, so a connection with one fresh
   cell is live and kept. O(capacity + stages per expired connection);
   returns connections removed from this table. *)
let ftab_expire tab ~idle_before =
  let removed = ref 0 in
  for i = 0 to tab.fcap - 1 do
    if ld8 tab.hk i >= 2 && ld4 tab.fage i < idle_before then begin
      let fh = ld8 tab.ffh i in
      let fresh = ref false in
      let s = ref (fmap_find tab.heads fh) in
      while !s >= 0 do
        if ld8 tab.hk !s >= 2 && ld4 tab.fage !s >= idle_before then fresh := true;
        s := ld4 tab.flink !s
      done;
      if not !fresh then begin
        ftab_remove_flow tab fh;
        incr removed
      end
    end
  done;
  !removed

(* --------------------- (chain, egress, stage) ids ------------------- *)

type ces_tab = {
  mutable ccap : int;
  mutable cmask : int;
  mutable cn : int;
  mutable ck1 : int array;
  mutable ck2 : int array;
  mutable ck3 : int array;
  mutable cocc : bool array;
  mutable cid : int array;
}

let ces_create () =
  let cap = 64 in
  {
    ccap = cap;
    cmask = cap - 1;
    cn = 0;
    ck1 = Array.make cap 0;
    ck2 = Array.make cap 0;
    ck3 = Array.make cap 0;
    cocc = Array.make cap false;
    cid = Array.make cap (-1);
  }

let ces_hash c e s = Packet.mix ((c * 0x9E3779B1) lxor (e * 0x85EBCA6B) lxor s)

let ces_find t c e s =
  let i = ref (ces_hash c e s land t.cmask) in
  let r = ref (-2) in
  while !r = -2 do
    if not t.cocc.(!i) then r := -1
    else if t.ck1.(!i) = c && t.ck2.(!i) = e && t.ck3.(!i) = s then r := t.cid.(!i)
    else i := (!i + 1) land t.cmask
  done;
  !r

let rec ces_intern t c e s =
  let found = ces_find t c e s in
  if found >= 0 then found
  else if (t.cn + 1) * 4 > t.ccap * 3 then begin
    let k1 = t.ck1 and k2 = t.ck2 and k3 = t.ck3 and occ = t.cocc and id = t.cid in
    let cap = t.ccap * 2 in
    t.ccap <- cap;
    t.cmask <- cap - 1;
    t.ck1 <- Array.make cap 0;
    t.ck2 <- Array.make cap 0;
    t.ck3 <- Array.make cap 0;
    t.cocc <- Array.make cap false;
    t.cid <- Array.make cap (-1);
    Array.iteri
      (fun i o ->
        if o then begin
          let j = ref (ces_hash k1.(i) k2.(i) k3.(i) land t.cmask) in
          while t.cocc.(!j) do
            j := (!j + 1) land t.cmask
          done;
          t.cocc.(!j) <- true;
          t.ck1.(!j) <- k1.(i);
          t.ck2.(!j) <- k2.(i);
          t.ck3.(!j) <- k3.(i);
          t.cid.(!j) <- id.(i)
        end)
      occ;
    ces_intern t c e s
  end
  else begin
    let i = ref (ces_hash c e s land t.cmask) in
    while t.cocc.(!i) do
      i := (!i + 1) land t.cmask
    done;
    t.cocc.(!i) <- true;
    t.ck1.(!i) <- c;
    t.ck2.(!i) <- e;
    t.ck3.(!i) <- s;
    let id = t.cn in
    t.cid.(!i) <- id;
    t.cn <- id + 1;
    id
  end

(* --------------------------- rule arena ----------------------------- *)

type arena = {
  mutable tgt : int array;
  mutable w : float array;
  mutable cum : float array;
  mutable used : int;
  mutable s_off : int array;
  mutable s_len : int array;
  mutable s_neg : bool array;
  mutable s_live : bool array;
  mutable nslots : int;
  mutable garbage : int;
  mutable compactions : int;
}

let arena_create () =
  {
    tgt = Array.make 64 0;
    w = Array.make 64 0.;
    cum = Array.make 64 0.;
    used = 0;
    s_off = Array.make 16 0;
    s_len = Array.make 16 0;
    s_neg = Array.make 16 false;
    s_live = Array.make 16 false;
    nslots = 0;
    garbage = 0;
    compactions = 0;
  }

let grow_int a n d =
  let b = Array.make n d in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_float a n d =
  let b = Array.make n d in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_bool a n d =
  let b = Array.make n d in
  Array.blit a 0 b 0 (Array.length a);
  b

let arena_compact a =
  let live = a.used - a.garbage in
  let tgt = Array.make (max live 64) 0 in
  let w = Array.make (max live 64) 0. in
  let cum = Array.make (max live 64) 0. in
  let pos = ref 0 in
  for s = 0 to a.nslots - 1 do
    if a.s_live.(s) then begin
      let off = a.s_off.(s) and len = a.s_len.(s) in
      Array.blit a.tgt off tgt !pos len;
      Array.blit a.w off w !pos len;
      Array.blit a.cum off cum !pos len;
      a.s_off.(s) <- !pos;
      pos := !pos + len
    end
  done;
  a.tgt <- tgt;
  a.w <- w;
  a.cum <- cum;
  a.used <- !pos;
  a.garbage <- 0;
  a.compactions <- a.compactions + 1

let arena_kill a slot =
  if slot >= 0 then begin
    a.s_live.(slot) <- false;
    a.garbage <- a.garbage + a.s_len.(slot)
  end

(* Append one slot for [targets]/[weights]; the journal's only write path
   into the packed rule store. *)
let arena_append a targets weights =
  let len = Array.length targets in
  if a.garbage > 1024 && a.garbage * 2 > a.used then arena_compact a;
  let need = a.used + len in
  if need > Array.length a.tgt then begin
    let cap = ref (Array.length a.tgt * 2) in
    while !cap < need do
      cap := !cap * 2
    done;
    a.tgt <- grow_int a.tgt !cap 0;
    a.w <- grow_float a.w !cap 0.;
    a.cum <- grow_float a.cum !cap 0.
  end;
  if a.nslots = Array.length a.s_off then begin
    let cap = a.nslots * 2 in
    a.s_off <- grow_int a.s_off cap 0;
    a.s_len <- grow_int a.s_len cap 0;
    a.s_neg <- grow_bool a.s_neg cap false;
    a.s_live <- grow_bool a.s_live cap false
  end;
  let cum, has_neg = Balancer.cumulative weights in
  Array.blit targets 0 a.tgt a.used len;
  Array.blit weights 0 a.w a.used len;
  Array.blit cum 0 a.cum a.used (min len (Array.length cum));
  let slot = a.nslots in
  a.s_off.(slot) <- a.used;
  a.s_len.(slot) <- len;
  a.s_neg.(slot) <- has_neg;
  a.s_live.(slot) <- true;
  a.nslots <- slot + 1;
  a.used <- a.used + len;
  slot

(* ------------------------------ DHT --------------------------------- *)

let dummy_ftab = ftab_create ()

(* Placement is unobservable through the fabric API — every membership
   change rereplicates the whole store — so instead of a consistent-hash
   ring the compiled DHT places key [h] on the [repl] members starting at
   [h mod n] in the member array: owner lookup is two array reads, no
   binary search, and the owners are distinct by construction. *)
type dht = {
  repl : int;
  mutable members : int array; (* forwarder ids, membership order *)
  mutable stores : ftab array; (* parallel to [members] *)
  mutable hit : ftab; (* store of the last successful [dht_find] *)
}

let dht_create ~replication =
  if replication <= 0 then invalid_arg "Plane.create: replication must be positive";
  { repl = replication; members = [||]; stores = [||]; hit = dummy_ftab }

let dht_find d h =
  let n = Array.length d.members in
  let k = if d.repl < n then d.repl else n in
  let r = ref (-1) in
  if n > 0 then begin
    let start = h mod n in
    let j = ref 0 in
    while !r < 0 && !j < k do
      let st = d.stores.((start + !j) mod n) in
      let s = ftab_find st h in
      if s >= 0 then begin
        d.hit <- st;
        r := s
      end;
      incr j
    done
  end;
  !r

let dht_put d h fh nxt prv age =
  let n = Array.length d.members in
  if n = 0 then invalid_arg "Plane: no forwarder holds the replicated flow store";
  let k = if d.repl < n then d.repl else n in
  let start = h mod n in
  for j = 0 to k - 1 do
    ftab_set d.stores.((start + j) mod n) h fh nxt prv age
  done

let dht_rereplicate d =
  let all = Hashtbl.create 256 in
  Array.iter
    (fun st ->
      for s = 0 to st.fcap - 1 do
        let h = ld8 st.hk s in
        if h >= 2 then
          Hashtbl.replace all h (ld8 st.ffh s, ld4 st.fnx s, ld4 st.fpv s, ld4 st.fage s)
      done)
    d.stores;
  Array.iter ftab_clear d.stores;
  Hashtbl.iter (fun h (fh, nxt, prv, age) -> dht_put d h fh nxt prv age) all

let dht_add_node d node =
  d.members <- Array.append d.members [| node |];
  d.stores <- Array.append d.stores [| ftab_create () |];
  dht_rereplicate d

let dht_member_index d node =
  let r = ref (-1) in
  Array.iteri (fun i m -> if m = node then r := i) d.members;
  !r

let dht_remove_node d node =
  let i = dht_member_index d node in
  if i >= 0 then begin
    let n = Array.length d.members in
    d.members <- Array.init (n - 1) (fun j -> d.members.(if j < i then j else j + 1));
    d.stores <- Array.init (n - 1) (fun j -> d.stores.(if j < i then j else j + 1));
    if n > 1 then dht_rereplicate d
  end

(* ------------------------------ plane ------------------------------- *)

let k_site = 1
let k_fwd = 2
let k_edge = 3
let k_inst = 4

type t = {
  rng : Sb_util.Rng.t;
  mutable next_id : int;
  (* per raw id *)
  mutable kind : int array;
  mutable site_name : string array;
  mutable site_fds : int list array; (* per site id: its dense forwarders, ascending *)
  mutable e_site : int array;
  mutable e_fwd : int array;
  mutable i_vnf : int array;
  mutable i_site : int array;
  mutable i_fwd : int array;
  mutable i_weight : float array;
  mutable i_alive : bool array;
  mutable f_dense : int array;
  (* per dense forwarder index *)
  mutable nf : int;
  mutable fwd_id : int array;
  mutable f_site : int array;
  mutable f_alive : bool array;
  mutable f_insts : int list array; (* attached instances, id-sorted *)
  mutable f_tab : ftab array;
  mutable tx : int array array; (* ces id -> arena slot, -1 absent *)
  mutable rx : int array array;
  mutable c_pkts : int array array; (* ces id -> counters *)
  mutable c_bytes : int array array;
  ces : ces_tab;
  arena : arena;
  dht : dht option;
  mutable journal : int;
  mutable now : int; (* logical clock stamped onto flow-table activity *)
  (* scratch for the allocation-free packet core *)
  mutable err_a : int;
  mutable err_b : int;
  mutable last_trace : endpoint list;
}

let create ?(seed = 0xF0) ?(flow_store = Local) () =
  {
    rng = Sb_util.Rng.create seed;
    next_id = 0;
    kind = Array.make 16 0;
    site_name = Array.make 16 "";
    site_fds = Array.make 16 [];
    e_site = Array.make 16 (-1);
    e_fwd = Array.make 16 (-1);
    i_vnf = Array.make 16 (-1);
    i_site = Array.make 16 (-1);
    i_fwd = Array.make 16 (-1);
    i_weight = Array.make 16 0.;
    i_alive = Array.make 16 false;
    f_dense = Array.make 16 (-1);
    nf = 0;
    fwd_id = Array.make 8 (-1);
    f_site = Array.make 8 (-1);
    f_alive = Array.make 8 false;
    f_insts = Array.make 8 [];
    f_tab = Array.make 8 dummy_ftab;
    tx = Array.make 8 [||];
    rx = Array.make 8 [||];
    c_pkts = Array.make 8 [||];
    c_bytes = Array.make 8 [||];
    ces = ces_create ();
    arena = arena_create ();
    dht =
      (match flow_store with
      | Local -> None
      | Replicated k -> Some (dht_create ~replication:k));
    journal = 0;
    now = 0;
    err_a = 0;
    err_b = 0;
    last_trace = [];
  }

let ensure_id t id =
  let cap = Array.length t.kind in
  if id >= cap then begin
    let ncap = ref (cap * 2) in
    while id >= !ncap do
      ncap := !ncap * 2
    done;
    let n = !ncap in
    t.kind <- grow_int t.kind n 0;
    t.site_name <-
      (let b = Array.make n "" in
       Array.blit t.site_name 0 b 0 cap;
       b);
    t.site_fds <-
      (let b = Array.make n [] in
       Array.blit t.site_fds 0 b 0 cap;
       b);
    t.e_site <- grow_int t.e_site n (-1);
    t.e_fwd <- grow_int t.e_fwd n (-1);
    t.i_vnf <- grow_int t.i_vnf n (-1);
    t.i_site <- grow_int t.i_site n (-1);
    t.i_fwd <- grow_int t.i_fwd n (-1);
    t.i_weight <- grow_float t.i_weight n 0.;
    t.i_alive <- grow_bool t.i_alive n false;
    t.f_dense <- grow_int t.f_dense n (-1)
  end

(* Ids stop at [max_id], so every packed endpoint fits a flow table's
   4-byte [fnx]/[fpv] slots. *)
let fresh t =
  let id = t.next_id in
  if id > max_id then invalid_arg "Plane: entity id space exhausted (2^29 ids)";
  t.next_id <- id + 1;
  ensure_id t id;
  id

let kind_of t id = if id >= 0 && id < Array.length t.kind then t.kind.(id) else 0

let get_fd t id =
  if kind_of t id = k_fwd then t.f_dense.(id) else invalid_arg "Plane: unknown forwarder"

let check_inst t id =
  if kind_of t id <> k_inst then invalid_arg "Plane: unknown VNF instance"

let add_site t name =
  let id = fresh t in
  t.kind.(id) <- k_site;
  t.site_name.(id) <- name;
  id

let add_forwarder t ~site =
  if kind_of t site <> k_site then invalid_arg "Plane.add_forwarder: unknown site";
  let id = fresh t in
  t.kind.(id) <- k_fwd;
  let fd = t.nf in
  (if fd = Array.length t.fwd_id then begin
     let n = fd * 2 in
     t.fwd_id <- grow_int t.fwd_id n (-1);
     t.f_site <- grow_int t.f_site n (-1);
     t.f_alive <- grow_bool t.f_alive n false;
     t.f_insts <-
       (let b = Array.make n [] in
        Array.blit t.f_insts 0 b 0 fd;
        b);
     t.f_tab <-
       (let b = Array.make n dummy_ftab in
        Array.blit t.f_tab 0 b 0 fd;
        b);
     let grow_aa a =
       let b = Array.make n [||] in
       Array.blit a 0 b 0 fd;
       b
     in
     t.tx <- grow_aa t.tx;
     t.rx <- grow_aa t.rx;
     t.c_pkts <- grow_aa t.c_pkts;
     t.c_bytes <- grow_aa t.c_bytes
   end);
  t.nf <- fd + 1;
  t.f_dense.(id) <- fd;
  t.fwd_id.(fd) <- id;
  t.f_site.(fd) <- site;
  t.site_fds.(site) <- t.site_fds.(site) @ [ fd ];
  t.f_alive.(fd) <- true;
  t.f_insts.(fd) <- [];
  t.f_tab.(fd) <- ftab_create ();
  t.tx.(fd) <- [||];
  t.rx.(fd) <- [||];
  t.c_pkts.(fd) <- [||];
  t.c_bytes.(fd) <- [||];
  (match t.dht with Some d -> dht_add_node d id | None -> ());
  id

let add_edge t ~site ~forwarder =
  ignore (get_fd t forwarder);
  let id = fresh t in
  t.kind.(id) <- k_edge;
  t.e_site.(id) <- site;
  t.e_fwd.(id) <- forwarder;
  id

let add_vnf_instance t ~vnf ~site ~forwarder ?(weight = 1.0) () =
  let fd = get_fd t forwarder in
  let id = fresh t in
  t.kind.(id) <- k_inst;
  t.i_vnf.(id) <- vnf;
  t.i_site.(id) <- site;
  t.i_fwd.(id) <- forwarder;
  t.i_weight.(id) <- weight;
  t.i_alive.(id) <- true;
  (* Fresh ids are the largest yet, so appending keeps the list sorted. *)
  t.f_insts.(fd) <- t.f_insts.(fd) @ [ id ];
  id

let instance_vnf t id =
  check_inst t id;
  t.i_vnf.(id)

let instance_site t id =
  check_inst t id;
  t.i_site.(id)

let instance_weight t id =
  check_inst t id;
  t.i_weight.(id)

let set_instance_weight t id w =
  check_inst t id;
  t.i_weight.(id) <- w

let instance_alive t id =
  check_inst t id;
  t.i_alive.(id)

let fail_instance t id =
  check_inst t id;
  t.i_alive.(id) <- false

let revive_instance t id =
  check_inst t id;
  t.i_alive.(id) <- true

let forwarder_site t id = t.f_site.(get_fd t id)

let site_name t id =
  if kind_of t id = k_site then t.site_name.(id) else invalid_arg "Plane: unknown site"

let attached_instances t ~forwarder = t.f_insts.(get_fd t forwarder)

let forwarder_published_weight t fwd vnf =
  (* Instance-id order; the seed folded its instance hashtable instead, so
     a pathological weight set could sum to a different float — in
     practice weights are few and well-scaled, and the published value is
     only an input to rule computation. *)
  List.fold_left
    (fun acc i -> if t.i_vnf.(i) = vnf then acc +. t.i_weight.(i) else acc)
    0.
    t.f_insts.(get_fd t fwd)

let forwarder_alive t id = t.f_alive.(get_fd t id)

let fail_forwarder t id =
  let fd = get_fd t id in
  if t.f_alive.(fd) then begin
    t.f_alive.(fd) <- false;
    t.journal <- t.journal + 1;
    match t.dht with
    | Some d -> dht_remove_node d id (* surviving replicas re-replicate *)
    | None -> () (* its flow table dies with it *)
  end

let revive_forwarder t id =
  let fd = get_fd t id in
  if not t.f_alive.(fd) then begin
    t.f_alive.(fd) <- true;
    t.journal <- t.journal + 1;
    (* The crash lost whatever local state the forwarder held. *)
    ftab_clear t.f_tab.(fd);
    match t.dht with
    | Some d -> dht_add_node d id (* rejoins empty; the ring re-replicates onto it *)
    | None -> ()
  end

let reattach_edge t edge ~forwarder =
  ignore (get_fd t forwarder);
  if kind_of t edge <> k_edge then invalid_arg "Plane.reattach_edge: unknown edge";
  t.e_fwd.(edge) <- forwarder;
  t.journal <- t.journal + 1

let rec insert_sorted x = function
  | [] -> [ x ]
  | y :: tl as l -> if x < y then x :: l else y :: insert_sorted x tl

let reattach_instance t inst ~forwarder =
  let nfd = get_fd t forwarder in
  check_inst t inst;
  let ofd = get_fd t t.i_fwd.(inst) in
  if ofd <> nfd then begin
    t.f_insts.(ofd) <- List.filter (fun i -> i <> inst) t.f_insts.(ofd);
    t.f_insts.(nfd) <- insert_sorted inst t.f_insts.(nfd)
  end;
  t.i_fwd.(inst) <- forwarder;
  t.journal <- t.journal + 1

(* ------------------------------ rules ------------------------------- *)

let slot_of arr ces = if ces < Array.length arr then arr.(ces) else -1

let set_slot map fd ces slot =
  let arr = map.(fd) in
  let arr =
    if ces < Array.length arr then arr
    else begin
      let cap = ref (max 8 (Array.length arr * 2)) in
      while ces >= !cap do
        cap := !cap * 2
      done;
      let b = Array.make !cap (-1) in
      Array.blit arr 0 b 0 (Array.length arr);
      map.(fd) <- b;
      b
    end
  in
  arr.(ces) <- slot

let install_rule_into t map ~forwarder ~chain_label ~egress_label ~stage targets =
  let fd = get_fd t forwarder in
  let ces = ces_intern t.ces chain_label egress_label stage in
  let tgt = Array.of_list (List.map (fun (h, _) -> pack_target h) targets) in
  let ws = Array.of_list (List.map snd targets) in
  arena_kill t.arena (slot_of map.(fd) ces);
  let slot = arena_append t.arena tgt ws in
  set_slot map fd ces slot;
  t.journal <- t.journal + 1

let install_rule t ~forwarder ~chain_label ~egress_label ~stage targets =
  install_rule_into t t.tx ~forwarder ~chain_label ~egress_label ~stage targets

let install_rx_rule t ~forwarder ~chain_label ~egress_label ~stage targets =
  install_rule_into t t.rx ~forwarder ~chain_label ~egress_label ~stage targets

type rule_patch = {
  rp_chain : int;
  rp_egress : int;
  rp_stage : int;
  rp_rx : bool;
  rp_targets : (endpoint * float) list;
}

(* Batched delta install: one pass over the patch list, skipping patches
   whose packed form already matches the forwarder's live slot — the
   O(churn) write path of the compiled rollout. Each applied patch goes
   through the same kill/append/journal discipline as a full install, so
   the arena and journal can't tell a delta from a reinstall. An empty
   target list retracts the rule (forwarding treats an empty rule and a
   missing one alike, so only {!rule}/{!rx_rule} see the difference). *)
let apply_delta t ~forwarder patches =
  let fd = get_fd t forwarder in
  let applied = ref 0 in
  List.iter
    (fun p ->
      let map = if p.rp_rx then t.rx else t.tx in
      let ces = ces_intern t.ces p.rp_chain p.rp_egress p.rp_stage in
      let tgt = Array.of_list (List.map (fun (h, _) -> pack_target h) p.rp_targets) in
      let ws = Array.of_list (List.map snd p.rp_targets) in
      let slot = slot_of map.(fd) ces in
      let retract = p.rp_targets = [] in
      let same =
        if retract then slot < 0
        else
          slot >= 0
          && t.arena.s_len.(slot) = Array.length tgt
          &&
          let off = t.arena.s_off.(slot) in
          let ok = ref true in
          Array.iteri
            (fun i v ->
              if t.arena.tgt.(off + i) <> v || t.arena.w.(off + i) <> ws.(i) then
                ok := false)
            tgt;
          !ok
      in
      if not same then begin
        arena_kill t.arena slot;
        set_slot map fd ces (if retract then -1 else arena_append t.arena tgt ws);
        t.journal <- t.journal + 1;
        incr applied
      end)
    patches;
  !applied

let rule_in t map ~forwarder ~chain_label ~egress_label ~stage =
  let fd = get_fd t forwarder in
  let ces = ces_find t.ces chain_label egress_label stage in
  if ces < 0 then None
  else
    let slot = slot_of map.(fd) ces in
    if slot < 0 then None
    else begin
      let off = t.arena.s_off.(slot) and len = t.arena.s_len.(slot) in
      Some (List.init len (fun i -> (unpack t.arena.tgt.(off + i), t.arena.w.(off + i))))
    end

let rule t ~forwarder ~chain_label ~egress_label ~stage =
  rule_in t t.tx ~forwarder ~chain_label ~egress_label ~stage

let rx_rule t ~forwarder ~chain_label ~egress_label ~stage =
  rule_in t t.rx ~forwarder ~chain_label ~egress_label ~stage

let flow_table_size t ~forwarder = t.f_tab.(get_fd t forwarder).fn

(* Longest probe sequence any lookup can take: max displacement of a
   live entry from its home slot, plus one for the hit itself. *)
let ftab_stats tab =
  let d = ref (Array.length tab.fdisp - 1) in
  while !d >= 0 && tab.fdisp.(!d) = 0 do
    decr d
  done;
  (tab.fn, tab.fcap, !d + 1)

let ftab_scan_stats tab =
  let maxp = ref 0 and live = ref 0 in
  for i = 0 to tab.fcap - 1 do
    let h = ld8 tab.hk i in
    if h >= 2 then begin
      incr live;
      let d = (i - (h land tab.fmask)) land tab.fmask in
      if d + 1 > !maxp then maxp := d + 1
    end
  done;
  (!live, tab.fcap, !maxp)

let flow_table_stats t ~forwarder = ftab_stats t.f_tab.(get_fd t forwarder)
let flow_table_scan_stats t ~forwarder = ftab_scan_stats t.f_tab.(get_fd t forwarder)

let mutations t = t.journal

type arena_stats = { slots_live : int; words_used : int; words_garbage : int; compactions : int }

let arena_stats t =
  let live = ref 0 in
  for s = 0 to t.arena.nslots - 1 do
    if t.arena.s_live.(s) then incr live
  done;
  {
    slots_live = !live;
    words_used = t.arena.used;
    words_garbage = t.arena.garbage;
    compactions = t.arena.compactions;
  }

(* ----------------------------- counters ----------------------------- *)

let bump t fd ces size =
  let arr = t.c_pkts.(fd) in
  if ces >= Array.length arr then begin
    let cap = ref (max 16 (Array.length arr * 2)) in
    while ces >= !cap do
      cap := !cap * 2
    done;
    t.c_pkts.(fd) <- grow_int t.c_pkts.(fd) !cap 0;
    t.c_bytes.(fd) <- grow_int t.c_bytes.(fd) !cap 0
  end;
  t.c_pkts.(fd).(ces) <- t.c_pkts.(fd).(ces) + 1;
  t.c_bytes.(fd).(ces) <- t.c_bytes.(fd).(ces) + size

let stage_counters t ~chain_label ~egress_label ~stage =
  let ces = ces_find t.ces chain_label egress_label stage in
  if ces < 0 then (0, 0)
  else begin
    let p = ref 0 and b = ref 0 in
    for fd = 0 to t.nf - 1 do
      if ces < Array.length t.c_pkts.(fd) then begin
        p := !p + t.c_pkts.(fd).(ces);
        b := !b + t.c_bytes.(fd).(ces)
      end
    done;
    (!p, !b)
  end

let fds_of_site t site =
  if site >= 0 && site < Array.length t.site_fds then t.site_fds.(site) else []

let site_stage_counters t ~site ~chain_label ~egress_label ~stage =
  let ces = ces_find t.ces chain_label egress_label stage in
  if ces < 0 then (0, 0)
  else begin
    let p = ref 0 and b = ref 0 in
    List.iter
      (fun fd ->
        if ces < Array.length t.c_pkts.(fd) then begin
          p := !p + t.c_pkts.(fd).(ces);
          b := !b + t.c_bytes.(fd).(ces)
        end)
      (fds_of_site t site);
    (!p, !b)
  end

let site_stage_counters_into t ~site ~chain_label ~egress_label ~pkts ~bytes =
  let stages = Array.length pkts in
  Array.fill pkts 0 stages 0;
  Array.fill bytes 0 stages 0;
  let fds = fds_of_site t site in
  for stage = 0 to stages - 1 do
    let ces = ces_find t.ces chain_label egress_label stage in
    if ces >= 0 then
      List.iter
        (fun fd ->
          if ces < Array.length t.c_pkts.(fd) then begin
            pkts.(stage) <- pkts.(stage) + t.c_pkts.(fd).(ces);
            bytes.(stage) <- bytes.(stage) + t.c_bytes.(fd).(ces)
          end)
        fds
  done

let reset_counters t =
  for fd = 0 to t.nf - 1 do
    Array.fill t.c_pkts.(fd) 0 (Array.length t.c_pkts.(fd)) 0;
    Array.fill t.c_bytes.(fd) 0 (Array.length t.c_bytes.(fd)) 0
  done

(* --------------------------- packet cores --------------------------- *)

let max_ttl = 64

(* Status codes for the cores; payloads in [t.err_a]/[t.err_b]. *)
let st_ok = 0
let st_no_rule = 1
let st_no_rev = 2
let st_inst_down = 3
let st_fwd_down = 4
let st_ttl = 5
let st_not_edge = 6

let err_of t = function
  | 1 -> No_rule { forwarder = t.err_a; stage = t.err_b }
  | 2 -> No_reverse_entry { forwarder = t.err_a; stage = t.err_b }
  | 3 -> Instance_down t.err_a
  | 4 -> Forwarder_down t.err_a
  | 5 -> Ttl_exceeded
  | _ -> Not_an_edge

(* One forward packet, hop by hop: the packet is a handful of mutable
   locals (a cursor) rather than a fresh record per hop, and with
   [record = false] the warm path allocates nothing at all. Mirrors the
   seed's [forward_at] decision for decision — including bumping the
   delivery counter before the instance-liveness check, and raising
   (not returning) on rule targets that name unknown entities. *)
let forward_core t ~record ~ingress ~chain_label ~egress_label ~size flow =
  if kind_of t ingress <> k_edge then st_not_edge
  else begin
    let fh = Packet.tuple_hash flow in
    let base = key_base ~chain_label ~egress_label fh in
    let fwd = ref t.e_fwd.(ingress) in
    let from = ref ((ingress lsl 2) lor tag_edge) in
    let stage = ref 0 in
    let ttl = ref max_ttl in
    let state = ref (-1) in
    if record then t.last_trace <- [ Edge ingress ];
    while !state < 0 do
      if !ttl <= 0 then state := st_ttl
      else begin
        let fd = get_fd t !fwd in
        if not t.f_alive.(fd) then begin
          t.err_a <- !fwd;
          state := st_fwd_down
        end
        else begin
          if record then t.last_trace <- Forwarder !fwd :: t.last_trace;
          let side = if !from land 3 = tag_fwd then 1 else 0 in
          (* -1 when no rule was ever installed for the triple: the
             packet fails as [No_rule] and leaves the table as it was. *)
          let ces = ces_find t.ces chain_label egress_label !stage in
          let h =
            match t.dht with
            | None -> key_hash base !stage
            | Some _ -> key_hash base ((2 * !stage) + side)
          in
          let next = ref 0 in
          (* A found cell is a probe position, so the unchecked column
             accesses below are in bounds. *)
          (match t.dht with
          | None ->
            let tab = t.f_tab.(fd) in
            let s = ftab_find tab h in
            if s >= 0 then begin
              next := ld4u tab.fnx s;
              st4u tab.fage s t.now
            end
          | Some d ->
            let s = dht_find d h in
            if s >= 0 then begin
              next := ld4u d.hit.fnx s;
              st4u d.hit.fage s t.now
            end);
          if !next = 0 then begin
            (* Flow miss: consult the rules. A packet handed over by a
               peer forwarder is mid-relay — prefer a non-empty
               receiver-side rule (local delivery). *)
            let slot =
              if ces < 0 then -1
              else if side = 1 then begin
                let rs = slot_of t.rx.(fd) ces in
                if rs >= 0 && t.arena.s_len.(rs) > 0 then rs else slot_of t.tx.(fd) ces
              end
              else slot_of t.tx.(fd) ces
            in
            if slot < 0 || t.arena.s_len.(slot) = 0 then begin
              t.err_a <- !fwd;
              t.err_b <- !stage;
              state := st_no_rule
            end
            else begin
              if t.arena.s_neg.(slot) then invalid_arg "Rng.weighted_index: negative weight";
              let off = t.arena.s_off.(slot) and len = t.arena.s_len.(slot) in
              let idx =
                Sb_util.Rng.weighted_index_cum t.rng t.arena.cum ~off ~len
              in
              let chosen = t.arena.tgt.(off + idx) in
              (match t.dht with
              | None -> ftab_set t.f_tab.(fd) h fh chosen !from t.now
              | Some d -> dht_put d h fh chosen !from t.now);
              next := chosen
            end
          end;
          if !state < 0 then begin
            let tag = !next land 3 in
            (* Measurement (Section 4.1): count a packet once per stage,
               at the forwarder that delivers it into the stage's
               destination element. *)
            if ces >= 0 && (tag = tag_edge || tag = tag_inst) then bump t fd ces size;
            if tag = tag_edge then begin
              t.err_a <- !next lsr 2;
              if record then t.last_trace <- Edge (!next lsr 2) :: t.last_trace;
              state := st_ok
            end
            else if tag = tag_fwd then begin
              from := (!fwd lsl 2) lor tag_fwd;
              fwd := !next lsr 2;
              decr ttl
            end
            else begin
              (* The VNF processes the packet and hands it to its own
                 proxy forwarder; the packet is now one stage further
                 along. A dead instance blackholes the connection. *)
              let i = !next lsr 2 in
              check_inst t i;
              if not t.i_alive.(i) then begin
                t.err_a <- i;
                state := st_inst_down
              end
              else begin
                if record then t.last_trace <- Vnf_instance i :: t.last_trace;
                from := (i lsl 2) lor tag_inst;
                fwd := t.i_fwd.(i);
                incr stage;
                decr ttl
              end
            end
          end
        end
      end
    done;
    !state
  end

let send_forward t ~ingress ~chain_label ~egress_label ?(size = 500) flow =
  match forward_core t ~record:true ~ingress ~chain_label ~egress_label ~size flow with
  | 0 ->
    let trace = List.rev t.last_trace in
    t.last_trace <- [];
    Ok trace
  | c -> Error (err_of t c)

let drive t ~ingress ~chain_label ~egress_label ~size flow =
  forward_core t ~record:false ~ingress ~chain_label ~egress_label ~size flow = 0

(* Reverse lookup must recover which role this forwarder played: prefer
   the receiver-side entry unless it names this forwarder as the sender it
   received from (then this forwarder was the sender). Returns the packed
   prev hop, or 0. Found cells are probe positions, so the unchecked
   column accesses are in bounds. *)
let find_prev t fd fwd_global base stage =
  match t.dht with
  | None ->
    let tab = t.f_tab.(fd) in
    let s = ftab_find tab (key_hash base stage) in
    if s >= 0 then begin
      st4u tab.fage s t.now;
      ld4u tab.fpv s
    end
    else 0
  | Some d ->
    let s1 = dht_find d (key_hash base ((2 * stage) + 1)) in
    let prv1 =
      if s1 >= 0 then begin
        st4u d.hit.fage s1 t.now;
        ld4u d.hit.fpv s1
      end
      else 0
    in
    if s1 >= 0 && prv1 <> (fwd_global lsl 2) lor tag_fwd then prv1
    else begin
      let s0 = dht_find d (key_hash base (2 * stage)) in
      if s0 >= 0 then begin
        st4u d.hit.fage s0 t.now;
        ld4u d.hit.fpv s0
      end
      else 0
    end

let reverse_core t ~record ~egress ~chain_label ~egress_label flow =
  if kind_of t egress <> k_edge then st_not_edge
  else begin
    let fh = Packet.tuple_hash flow in
    let base = key_base ~chain_label ~egress_label fh in
    let efd = get_fd t t.e_fwd.(egress) in
    (* The reply's stage is the connection's last stage: the highest stage
       with recorded state (probed in the DHT in Replicated mode; local
       stages are bounded by the TTL). *)
    let last_stage = ref (-1) in
    (match t.dht with
    | None ->
      let tab = t.f_tab.(efd) in
      for stage = 0 to max_ttl do
        if ftab_find tab (key_hash base stage) >= 0 then last_stage := stage
      done
    | Some d ->
      for stage = 0 to 32 do
        if
          dht_find d (key_hash base (2 * stage)) >= 0
          || dht_find d (key_hash base ((2 * stage) + 1)) >= 0
        then last_stage := stage
      done);
    if !last_stage < 0 then begin
      t.err_a <- t.e_fwd.(egress);
      t.err_b <- -1;
      st_no_rev
    end
    else begin
      let fwd = ref t.e_fwd.(egress) in
      let stage = ref !last_stage in
      let ttl = ref max_ttl in
      let state = ref (-1) in
      if record then t.last_trace <- [ Edge egress ];
      while !state < 0 do
        if !ttl <= 0 then state := st_ttl
        else begin
          let fd = get_fd t !fwd in
          if not t.f_alive.(fd) then begin
            t.err_a <- !fwd;
            state := st_fwd_down
          end
          else begin
            if record then t.last_trace <- Forwarder !fwd :: t.last_trace;
            let prev = find_prev t fd !fwd base !stage in
            if prev = 0 then begin
              t.err_a <- !fwd;
              t.err_b <- !stage;
              state := st_no_rev
            end
            else begin
              let tag = prev land 3 in
              if tag = tag_edge then begin
                t.err_a <- prev lsr 2;
                if record then t.last_trace <- Edge (prev lsr 2) :: t.last_trace;
                state := st_ok
              end
              else if tag = tag_fwd then begin
                fwd := prev lsr 2;
                decr ttl
              end
              else begin
                let i = prev lsr 2 in
                check_inst t i;
                if record then t.last_trace <- Vnf_instance i :: t.last_trace;
                fwd := t.i_fwd.(i);
                decr stage;
                decr ttl
              end
            end
          end
        end
      done;
      !state
    end
  end

let send_reverse t ~egress ~chain_label ~egress_label ?(size = 500) flow =
  ignore size;
  match reverse_core t ~record:true ~egress ~chain_label ~egress_label flow with
  | 0 ->
    let trace = List.rev t.last_trace in
    t.last_trace <- [];
    Ok trace
  | c -> Error (err_of t c)

(* ----------------------------- helpers ------------------------------ *)

let vnfs_in_trace t trace =
  List.filter_map
    (function Vnf_instance i -> Some (instance_vnf t i) | Edge _ | Forwarder _ -> None)
    trace

let instances_in_trace trace =
  List.filter_map
    (function Vnf_instance i -> Some i | Edge _ | Forwarder _ -> None)
    trace

let end_flow t flow =
  let fh = Packet.tuple_hash flow in
  for fd = 0 to t.nf - 1 do
    ftab_remove_flow t.f_tab.(fd) fh
  done;
  match t.dht with
  | Some d -> Array.iter (fun st -> ftab_remove_flow st fh) d.stores
  | None -> ()

(* The clock is stamped into the 4-byte [fage] slots. *)
let set_clock t now =
  if now < 0 || now > max_int32 then invalid_arg "Plane.set_clock: clock outside [0, 2^31)";
  t.now <- now
let clock t = t.now

let expire_flows t ~idle_before =
  let removed = ref 0 in
  for fd = 0 to t.nf - 1 do
    removed := !removed + ftab_expire t.f_tab.(fd) ~idle_before
  done;
  (match t.dht with
  | Some d ->
    Array.iter (fun st -> removed := !removed + ftab_expire st ~idle_before) d.stores
  | None -> ());
  !removed

let instance_flow_count t instance =
  check_inst t instance;
  let pi = (instance lsl 2) lor tag_inst in
  let count = ref 0 in
  let scan tab =
    for s = 0 to tab.fcap - 1 do
      if ld8 tab.hk s >= 2 && (ld4 tab.fnx s = pi || ld4 tab.fpv s = pi) then incr count
    done
  in
  for fd = 0 to t.nf - 1 do
    scan t.f_tab.(fd)
  done;
  (* Replicated copies count too: a crashed-and-revived forwarder would
     re-serve them, so a drain is only done when they have expired as
     well. *)
  (match t.dht with Some d -> Array.iter scan d.stores | None -> ());
  !count

let transfer_flows t ~from_instance ~to_instance =
  check_inst t from_instance;
  check_inst t to_instance;
  if t.i_vnf.(from_instance) <> t.i_vnf.(to_instance) then
    invalid_arg "Plane.transfer_flows: instances run different VNFs";
  let pf = (from_instance lsl 2) lor tag_inst in
  let pt = (to_instance lsl 2) lor tag_inst in
  let rewritten = ref 0 in
  for fd = 0 to t.nf - 1 do
    let tab = t.f_tab.(fd) in
    for s = 0 to tab.fcap - 1 do
      if ld8 tab.hk s >= 2 then begin
        if ld4 tab.fnx s = pf then begin
          incr rewritten;
          st4 tab.fnx s pt
        end;
        if ld4 tab.fpv s = pf then begin
          incr rewritten;
          st4 tab.fpv s pt
        end
      end
    done
  done;
  (* Connections processed by the VNF continue from the NEW instance's
     forwarder, which needs the onward (and return) entries the old
     instance's forwarder held. *)
  let ofd = get_fd t t.i_fwd.(from_instance) in
  let nfd = get_fd t t.i_fwd.(to_instance) in
  if ofd <> nfd then begin
    let old_tab = t.f_tab.(ofd) and new_tab = t.f_tab.(nfd) in
    for s = 0 to old_tab.fcap - 1 do
      if
        ld8 old_tab.hk s >= 2
        && (ld4 old_tab.fnx s = pt || ld4 old_tab.fpv s = pt)
      then
        ftab_set new_tab (ld8 old_tab.hk s) (ld8 old_tab.ffh s) (ld4 old_tab.fnx s)
          (ld4 old_tab.fpv s) (ld4 old_tab.fage s)
    done
  end;
  t.journal <- t.journal + 1;
  !rewritten
