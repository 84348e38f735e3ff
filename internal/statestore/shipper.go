package statestore

import (
	"time"

	"dynamo/internal/rpc"
	"dynamo/internal/simclock"
	"dynamo/internal/telemetry"
)

// Peer names one replication target.
type Peer struct {
	// Name labels the peer in telemetry.
	Name string
	// Client reaches the peer store's Handler (in-proc or TCP).
	Client rpc.Client
}

// ShipperConfig tunes the log shipper.
type ShipperConfig struct {
	// Interval is the shipping cadence. Default 1s.
	Interval time.Duration
	// Timeout bounds each replicate call. Default Interval/2.
	Timeout time.Duration
	// BatchMax caps entries per replicate request. Default 512.
	BatchMax int
	// Telemetry instruments the shipper (nil disables).
	Telemetry *telemetry.Sink
}

func (c *ShipperConfig) fillDefaults() {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = c.Interval / 2
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 512
	}
}

// peerState is the shipper's cumulative-ack bookkeeping for one peer.
type peerState struct {
	name   string
	client rpc.Client
	// next is the per-device sequence number the peer acked next; the
	// shipper always resends from here, so dropped or reordered batches
	// are healed by retransmission and duplicates are ignored remotely.
	next     map[string]uint64
	fenced   map[string]bool
	inflight bool

	lag     *telemetry.Gauge
	shipped *telemetry.Counter
	fails   *telemetry.Counter
	fenceCt *telemetry.Counter
}

// Shipper replicates a local store's streams to peer stores by periodic
// cumulative-ack log shipping. It is loop-confined with the store.
type Shipper struct {
	cfg    ShipperConfig
	store  *Store
	peers  []*peerState
	ticker *simclock.Ticker
}

// NewShipper creates a shipper from store to peers.
func NewShipper(loop simclock.Loop, store *Store, peers []Peer, cfg ShipperConfig) *Shipper {
	cfg.fillDefaults()
	sh := &Shipper{cfg: cfg, store: store}
	for _, p := range peers {
		// Registered peers gate the store's compaction: history before a
		// snapshot is retained until this peer's cumulative ack passes it.
		store.RegisterPeer(p.Name)
		ps := &peerState{
			name:   p.Name,
			client: p.Client,
			next:   map[string]uint64{},
			fenced: map[string]bool{},
		}
		if cfg.Telemetry.Enabled() {
			lb := []string{"store", store.Name(), "peer", p.Name}
			ps.lag = cfg.Telemetry.Gauge("dynamo_statestore_replication_lag_entries", lb...)
			ps.shipped = cfg.Telemetry.Counter("dynamo_statestore_shipped_entries_total", lb...)
			ps.fails = cfg.Telemetry.Counter("dynamo_statestore_ship_failures_total", lb...)
			ps.fenceCt = cfg.Telemetry.Counter("dynamo_statestore_ship_fenced_total", lb...)
		}
		sh.peers = append(sh.peers, ps)
	}
	sh.ticker = simclock.NewTicker(loop, cfg.Interval, sh.tick)
	return sh
}

// Start begins shipping.
func (sh *Shipper) Start() { sh.ticker.Start() }

// Stop halts shipping; an in-flight batch completes or times out.
func (sh *Shipper) Stop() { sh.ticker.Stop() }

// Lag returns the total number of unacked entries across peers and
// devices (what the replication-lag gauges expose per peer).
func (sh *Shipper) Lag() uint64 {
	var total uint64
	for _, p := range sh.peers {
		total += sh.peerLag(p)
	}
	return total
}

// FencedDevices returns devices this shipper stopped replicating because
// a peer reported a newer epoch (the local store belongs to a zombie).
func (sh *Shipper) FencedDevices() []string {
	var out []string
	for _, dev := range sh.store.Devices() {
		for _, p := range sh.peers {
			if p.fenced[dev] {
				out = append(out, dev)
				break
			}
		}
	}
	return out
}

// peerLag computes how far peer trails the local store.
func (sh *Shipper) peerLag(p *peerState) uint64 {
	var lag uint64
	for _, dev := range sh.store.Devices() {
		head := sh.store.NextSeq(dev)
		acked := p.next[dev]
		if acked == 0 {
			acked = 1
		}
		if head > acked {
			lag += head - acked
		}
	}
	return lag
}

func (sh *Shipper) tick() {
	for _, p := range sh.peers {
		sh.ship(p)
	}
}

// ship sends one batch to peer: for every device, all retained entries the
// peer has not acked, up to BatchMax. At most one batch per peer is in
// flight, one attempt per tick: the acks are cumulative, so a lost batch
// is resent from the last ack on the next tick.
func (sh *Shipper) ship(p *peerState) {
	if p.lag != nil {
		p.lag.Set(float64(sh.peerLag(p)))
	}
	if p.inflight {
		return
	}
	var batch []Entry
	for _, dev := range sh.store.Devices() {
		if p.fenced[dev] {
			continue
		}
		from := p.next[dev]
		if from == 0 {
			from = 1
		}
		ents, _ := sh.store.EntriesFrom(dev, from)
		for i := range ents {
			if len(batch) >= sh.cfg.BatchMax {
				break
			}
			batch = append(batch, ents[i])
		}
	}
	if len(batch) == 0 {
		return
	}
	p.inflight = true
	req := &ReplicateRequest{Source: sh.store.Name(), Entries: batch}
	sent := len(batch)
	p.client.Call(MethodReplicate, req, sh.cfg.Timeout, func(resp []byte, err error) {
		p.inflight = false
		var ack ReplicateResponse
		if derr := rpc.Decode(resp, err, &ack); derr != nil {
			if p.fails != nil {
				p.fails.Inc()
			}
			return // retry from the last ack next tick
		}
		if p.shipped != nil {
			p.shipped.Add(uint64(sent))
		}
		for _, a := range ack.Acks {
			p.next[a.Device] = a.NextSeq
			sh.store.PeerAcked(p.name, a.Device, a.NextSeq)
			if a.Fenced && !p.fenced[a.Device] {
				p.fenced[a.Device] = true
				if p.fenceCt != nil {
					p.fenceCt.Inc()
				}
			}
		}
		if p.lag != nil {
			p.lag.Set(float64(sh.peerLag(p)))
		}
	})
}
