//go:build !race

package server

// firstSightWall and groupByWall are TestResultPathAllocationWalls' byte
// walls for its 4 000-group GROUP BY, sighted once and sighted twice;
// pointSelectWall and insertWall are TestRequestPathAllocationWalls'
// object walls for a cached point SELECT and a single-row INSERT
// (wall_race_test.go has the -race ones).
const (
	firstSightWall  = 64000
	groupByWall     = 300000
	pointSelectWall = 12
	insertWall      = 30
)
