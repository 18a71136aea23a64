module Binc = Ode_util.Binc

type t = Logical_store.t

type loc = { page : int; slot : int }

type disk = {
  pager : Pager.t;
  pool : Buffer_pool.t;
  dir : loc Rid.Tbl.t;
  mutable active_page : int option;  (* current fill target *)
  roomy_pages : (int, unit) Hashtbl.t;  (* pages with reclaimed space *)
  mutable bloom : Bloom.t;  (* membership filter in front of [dir] *)
  bloom_seed : int;
  bloom_fp_rate : float;
  mutable relocations : int;
  mutable bloom_stale : int;  (* deleted rids still hashed into the filter *)
  mutable bloom_incr_rebuilds : int;  (* full anchors served by an O(dirty) patch *)
}

let fail fmt = Format.kasprintf (fun msg -> raise (Store.Store_error msg)) fmt

let encode_record rid payload =
  let w = Binc.writer () in
  Binc.write_uvarint w (Rid.to_int rid);
  Binc.write_bytes w payload;
  Binc.contents w

let decode_record bytes =
  let r = Binc.reader bytes in
  let rid = Rid.of_int (Binc.read_uvarint r) in
  let payload = Binc.read_bytes r in
  (rid, payload)

(* Place/read/remove records on pages; no locking or logging (the logical
   layer above does both). *)

let place_on_page d page_id data =
  Buffer_pool.with_page d.pool page_id ~dirty:true (fun page -> Page.insert page data)

let try_pages d data =
  let try_page page_id =
    match place_on_page d page_id data with
    | Some slot -> Some { page = page_id; slot }
    | None ->
        Hashtbl.remove d.roomy_pages page_id;
        None
  in
  let from_active =
    match d.active_page with Some page_id -> try_page page_id | None -> None
  in
  match from_active with
  | Some loc -> Some loc
  | None ->
      let roomy = Hashtbl.fold (fun page_id () acc -> page_id :: acc) d.roomy_pages [] in
      let roomy = List.sort compare roomy in
      List.fold_left
        (fun found page_id -> match found with Some _ -> found | None -> try_page page_id)
        None roomy

let phys_insert d rid payload =
  let data = encode_record rid payload in
  let page_capacity = Pager.page_size d.pager - 64 in
  if Bytes.length data > page_capacity then
    fail "record %a too large (%d bytes > page capacity %d)" Rid.pp rid (Bytes.length data)
      page_capacity;
  let loc =
    match try_pages d data with
    | Some loc -> loc
    | None ->
        let page_id = Pager.alloc d.pager in
        d.active_page <- Some page_id;
        (match place_on_page d page_id data with
        | Some slot -> { page = page_id; slot }
        | None -> fail "record does not fit on a fresh page")
  in
  (* Every caller places an absent rid (new, relocated, or restored by
     undo), so the directory entry is new and the key joins the filter. *)
  Bloom.add d.bloom (Rid.to_int rid);
  Rid.Tbl.replace d.dir rid loc

let fresh_bloom d ~expected =
  Bloom.create ~seed:d.bloom_seed ~expected:(max 1024 expected) ~fp_rate:d.bloom_fp_rate

(* Resize-and-rekey from the live directory. Runs at every full
   checkpoint (flushing deleted rids out of the filter) and whenever
   inserts overrun the sized capacity by 2x (keeping the false-positive
   rate near its target as the store grows). Same seed — rebuilds are
   deterministic. *)
let rebuild_bloom d =
  let bloom = fresh_bloom d ~expected:(2 * Rid.Tbl.length d.dir) in
  Rid.Tbl.iter (fun rid _ -> Bloom.add bloom (Rid.to_int rid)) d.dir;
  d.bloom <- bloom;
  d.bloom_stale <- 0

(* Full-anchor bloom refresh: when the checkpoint's committed delta is
   small relative to the live set and the filter is neither over capacity
   nor carrying many dead keys, patch the existing filter from the dirty
   rids instead of re-hashing the whole directory — O(dirty), not
   O(live). Deleted rids stay hashed in (false positives only, counted in
   [bloom_stale]), so the patch path keeps its own budget: once stale
   keys or insert overrun would erode the false-positive target, the next
   anchor falls back to the full walk and flushes them out. *)
let refresh_bloom d dirty_rids =
  let live = Rid.Tbl.length d.dir in
  let saturated = Bloom.count d.bloom > 2 * Bloom.expected d.bloom in
  let too_stale = d.bloom_stale * 8 > max 1024 live in
  let small = List.length dirty_rids * 8 <= live in
  if small && (not saturated) && not too_stale then begin
    List.iter
      (fun rid ->
        let key = Rid.to_int rid in
        if Rid.Tbl.mem d.dir rid && not (Bloom.maybe_mem d.bloom key) then
          Bloom.add d.bloom key)
      dirty_rids;
    d.bloom_incr_rebuilds <- d.bloom_incr_rebuilds + 1
  end
  else rebuild_bloom d

let phys_read d rid =
  match Rid.Tbl.find_opt d.dir rid with
  | None -> None
  | Some loc ->
      Buffer_pool.with_page d.pool loc.page ~dirty:false (fun page ->
          match Page.read page loc.slot with
          | None -> fail "directory points at dead slot for %a" Rid.pp rid
          | Some data ->
              let stored_rid, payload = decode_record data in
              if not (Rid.equal stored_rid rid) then
                fail "directory/page disagree on rid (%a vs %a)" Rid.pp rid Rid.pp stored_rid;
              Some payload)

let phys_delete d rid =
  match Rid.Tbl.find_opt d.dir rid with
  | None -> ()
  | Some loc ->
      Buffer_pool.with_page d.pool loc.page ~dirty:true (fun page -> Page.delete page loc.slot);
      Hashtbl.replace d.roomy_pages loc.page ();
      Rid.Tbl.remove d.dir rid;
      d.bloom_stale <- d.bloom_stale + 1

(* An update that no longer fits in place relocates the record; the
   directory keeps its rid stable (the paper's persistent pointers). *)
let phys_update d rid loc payload =
  let data = encode_record rid payload in
  let in_place =
    Buffer_pool.with_page d.pool loc.page ~dirty:true (fun page -> Page.update page loc.slot data)
  in
  if not in_place then begin
    d.relocations <- d.relocations + 1;
    phys_delete d rid;
    phys_insert d rid payload
  end

let put d rid payload =
  match Rid.Tbl.find_opt d.dir rid with
  | Some loc -> phys_update d rid loc payload
  | None ->
      phys_insert d rid payload;
      if Bloom.count d.bloom > 2 * Bloom.expected d.bloom then rebuild_bloom d

let counters d () =
  let pager = Pager.stats d.pager in
  let pool = Buffer_pool.stats d.pool in
  [
    ("bloom_bits", Bloom.bit_count d.bloom);
    ("bloom_keys", Bloom.count d.bloom);
    ("bloom_stale_keys", d.bloom_stale);
    ("bloom_incremental_rebuilds", d.bloom_incr_rebuilds);
    ("relocations", d.relocations);
    ("page_reads", pager.Pager.reads);
    ("page_writes", pager.Pager.writes);
    ("pages", Pager.page_count d.pager);
    ("pool_hits", pool.Buffer_pool.hits);
    ("pool_misses", pool.Buffer_pool.misses);
    ("pool_evictions", pool.Buffer_pool.evictions);
    ("pool_writebacks", pool.Buffer_pool.writebacks);
  ]

let create ?(page_size = 4096) ?(pool_capacity = 64) ?io_spin ?flush_spin ?flush_sleep
    ?durability ?faults ?rid_base ?rid_stride ?wal_segment_bytes ?ckpt_full_every
    ?auto_ckpt_bytes ?(bloom_seed = 0x0DE5EED) ?(bloom_fp_rate = 0.01) ~mgr ~name () =
  let faults = match faults with Some f -> f | None -> Faults.create () in
  let pager = Pager.create ?io_spin ~faults ~page_size () in
  let d =
    {
      pager;
      pool = Buffer_pool.create ~faults pager ~capacity:pool_capacity;
      dir = Rid.Tbl.create 256;
      active_page = None;
      roomy_pages = Hashtbl.create 16;
      bloom = Bloom.create ~seed:bloom_seed ~expected:1024 ~fp_rate:bloom_fp_rate;
      bloom_seed;
      bloom_fp_rate;
      relocations = 0;
      bloom_stale = 0;
      bloom_incr_rebuilds = 0;
    }
  in
  Logical_store.create ?flush_spin ?flush_sleep ?durability ~faults ?rid_base ?rid_stride
    ?wal_segment_bytes ?ckpt_full_every ?auto_ckpt_bytes ~mgr ~name
    {
      Logical_store.get = (fun rid -> phys_read d rid);
      put = (fun rid payload -> put d rid payload);
      remove = (fun rid -> phys_delete d rid);
      mem = (fun rid -> Rid.Tbl.mem d.dir rid);
      iter = (fun f -> Rid.Tbl.iter (fun rid _ -> f rid) d.dir);
      count = (fun () -> Rid.Tbl.length d.dir);
      (* Sized for the load up front, so neither the per-record adds nor
         the recovery anchor need a rebuild pass. *)
      reserve = (fun n -> d.bloom <- fresh_bloom d ~expected:(2 * n));
      (* Checkpoints write dirty pages back before logging the state. *)
      flush = (fun () -> Buffer_pool.flush_all d.pool);
      after_anchor = refresh_bloom d;
      crash = (fun () -> Buffer_pool.drop_all d.pool);
      counters = counters d;
      filter = Some (fun rid -> Bloom.maybe_mem d.bloom (Rid.to_int rid));
    }

let ops = Logical_store.ops
let crash = Logical_store.crash
