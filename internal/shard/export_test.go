package shard

// Shard returns the replica's shard label.
func (r *Replica) Shard() string { return r.shard }
