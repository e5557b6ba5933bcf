package systolic

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/gossip"
)

// CheckpointVersion is the schema version written into checkpoints; Restore
// rejects any other value.
const CheckpointVersion = 1

// Checkpoint is a JSON-serializable snapshot of a session mid-flight. It
// carries the simulation state, not the inputs: restoring requires
// reconstructing the session with the same network and protocol first (use
// SaveProtocol/LoadProtocol to persist a schedule alongside a checkpoint).
// The golden test testdata/checkpoint.golden.json pins this schema.
type Checkpoint struct {
	// Version is the checkpoint schema version (CheckpointVersion).
	Version int `json:"version"`
	// Network names the network the session ran on; Restore cross-checks it.
	Network string `json:"network"`
	// Mode is "gossip" or "broadcast".
	Mode string `json:"mode"`
	// N is the processor count; the state payload length derives from it.
	N int `json:"n"`
	// Source is the broadcast source, or -1 for gossip sessions.
	Source int `json:"source"`
	// Round is the number of executed rounds.
	Round int `json:"round"`
	// Done records whether dissemination had completed.
	Done bool `json:"done"`
	// Knowledge is the total knowledge at snapshot time; Restore verifies it
	// against the decoded state as an integrity check.
	Knowledge int `json:"knowledge"`
	// Protocol fingerprints the schedule the session was executing (mode,
	// period and every round's arcs); Restore rejects a checkpoint taken
	// under a different protocol, since resuming a state under another
	// schedule would silently produce meaningless measurements.
	Protocol string `json:"protocol_fp"`
	// Frontier is the per-round newly-informed count history.
	Frontier []int `json:"frontier"`
	// State is the base64 encoding of the knowledge sets: little-endian
	// uint64 words, ⌈n/64⌉ words per vertex for gossip, a single ⌈n/64⌉-word
	// vertex bitset for broadcast.
	State string `json:"state_b64"`
}

const (
	checkpointModeGossip    = "gossip"
	checkpointModeBroadcast = "broadcast"
)

// scheduleFingerprint returns the fingerprint of the schedule the session
// executes, whichever IR backs it: the generator program streams its hash,
// a CSR program reports the compiled protocol's. The two coincide for the
// same schedule, so checkpoints move freely between the forms.
func (s *Session) scheduleFingerprint() string {
	if s.grun != nil {
		return s.grun.Program().Fingerprint()
	}
	return s.prog.Fingerprint()
}

// Snapshot captures the session's current state as a checkpoint. The
// session can keep stepping afterwards; the checkpoint is independent.
func (s *Session) Snapshot() *Checkpoint {
	c := &Checkpoint{
		Version:   CheckpointVersion,
		Network:   s.net.Name,
		Mode:      checkpointModeGossip,
		N:         s.net.N(),
		Source:    -1,
		Round:     s.round,
		Done:      s.done,
		Knowledge: s.Knowledge(),
		Protocol:  s.scheduleFingerprint(),
		Frontier:  s.Frontier(),
	}
	var payload []byte
	if s.broadcast {
		c.Mode = checkpointModeBroadcast
		c.Source = s.source
		payload = s.fr.Export()
	} else {
		payload = s.st.Export()
	}
	c.State = base64.StdEncoding.EncodeToString(payload)
	return c
}

// Restore loads a checkpoint into the session, replacing its state, round
// counter and frontier history. The checkpoint must come from a session of
// the same mode on the same network (name and size are cross-checked, as is
// the knowledge count against the decoded state). Stepping after a
// successful Restore resumes deterministically. Restore is atomic: the
// checkpoint is decoded and validated into a scratch state first, so a
// failed Restore leaves the session exactly as it was.
func (s *Session) Restore(c *Checkpoint) error {
	if c.Version != CheckpointVersion {
		return fmt.Errorf("%w: version %d, want %d", ErrBadCheckpoint, c.Version, CheckpointVersion)
	}
	mode := checkpointModeGossip
	if s.broadcast {
		mode = checkpointModeBroadcast
	}
	if c.Mode != mode {
		return fmt.Errorf("%w: checkpoint is for %s, session is %s", ErrBadCheckpoint, c.Mode, mode)
	}
	if c.N != s.net.N() {
		return fmt.Errorf("%w: checkpoint has n=%d, network %s has n=%d", ErrBadCheckpoint, c.N, s.net.Name, s.net.N())
	}
	if c.Network != s.net.Name {
		return fmt.Errorf("%w: checkpoint is for network %q, session runs on %q", ErrBadCheckpoint, c.Network, s.net.Name)
	}
	if s.broadcast && c.Source != s.source {
		return fmt.Errorf("%w: checkpoint broadcasts from %d, session from %d", ErrBadCheckpoint, c.Source, s.source)
	}
	if fp := s.scheduleFingerprint(); c.Protocol != fp {
		return fmt.Errorf("%w: checkpoint was taken under protocol %s, session runs %s", ErrBadCheckpoint, c.Protocol, fp)
	}
	if c.Round < 0 {
		return fmt.Errorf("%w: negative round %d", ErrBadCheckpoint, c.Round)
	}
	payload, err := base64.StdEncoding.DecodeString(c.State)
	if err != nil {
		return fmt.Errorf("%w: state: %w", ErrBadCheckpoint, err)
	}
	// Decode into scratch backends; the session is only touched once every
	// check below has passed.
	n := s.net.N()
	var (
		st       *gossip.State
		fr       *gossip.FrontierState
		know     int
		complete bool
	)
	if s.broadcast {
		fr = gossip.NewFrontierState(n, s.source)
		if err := fr.Import(payload); err != nil {
			return fmt.Errorf("%w: state: %w", ErrBadCheckpoint, err)
		}
		know, complete = fr.InformedCount(), fr.Complete()
	} else {
		st = gossip.NewState(n)
		if err := st.Import(payload); err != nil {
			return fmt.Errorf("%w: state: %w", ErrBadCheckpoint, err)
		}
		know, complete = st.TotalKnowledge(), st.GossipComplete()
	}
	if know != c.Knowledge {
		return fmt.Errorf("%w: knowledge %d does not match its state (%d)", ErrBadCheckpoint, c.Knowledge, know)
	}
	if complete != c.Done {
		return fmt.Errorf("%w: done=%v does not match its state", ErrBadCheckpoint, c.Done)
	}
	// The frontier history must cover exactly the executed rounds and sum
	// to the knowledge the state decodes to (Session.Frontier's invariant).
	if len(c.Frontier) != c.Round {
		return fmt.Errorf("%w: frontier has %d entries for %d rounds", ErrBadCheckpoint, len(c.Frontier), c.Round)
	}
	initial := n // gossip: every processor starts knowing its own item
	if s.broadcast {
		initial = 1
	}
	sum := initial
	for _, gained := range c.Frontier {
		sum += gained
	}
	if sum != know {
		return fmt.Errorf("%w: frontier sums to %d, state knows %d", ErrBadCheckpoint, sum, know)
	}
	if s.broadcast {
		s.fr = fr
	} else {
		st.SetShards(s.st.Shards())
		s.st = st
	}
	s.round = c.Round
	s.frontier = append(s.frontier[:0], c.Frontier...)
	s.done = complete
	return nil
}

// WriteCheckpoint writes the checkpoint as indented JSON, the on-disk
// format of gossipsim -checkpoint.
func WriteCheckpoint(w io.Writer, c *Checkpoint) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// ReadCheckpoint parses a checkpoint written by WriteCheckpoint.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var c Checkpoint
	if err := json.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("systolic: reading checkpoint: %w", err)
	}
	return &c, nil
}
