package core

// Revive restarts a killed replica in place: dispatch resumes and the
// instance re-enrolls in discovery — with its original metadata, so a
// revived shard replica rejoins the same replica set — under a fresh lease
// and heartbeat.
func (i *Instance) Revive() {
	i.srv.Resume()
	stopHB, release := i.app.enroll(i.Service, i.Addr, i.meta)
	i.mu.Lock()
	i.stopHB, i.release = stopHB, release
	i.mu.Unlock()
}
