//go:build race

package server

// firstSightWall and groupByWall are TestResultPathAllocationWalls' byte
// walls for its 4 000-group GROUP BY under -race. There a sync.Pool drops
// a quarter of what it is given, at random, and the request after a drop
// regrows the encoder's buffer: thirty runs of one stored answer read
// 256–362 KB where a build without -race reads ≈ 135 KB, and a first
// sighting, ≈ 38 KB without -race, reads 40–190 KB. A request whose
// exchange was dropped makes a new one: a cached point SELECT reads
// 14–15 objects where it reads 8 without -race, a single-row INSERT
// 24–25 where it reads 20.
const (
	firstSightWall  = 300000
	groupByWall     = 600000
	pointSelectWall = 22
	insertWall      = 36
)
