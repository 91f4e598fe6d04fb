// Package narrowing is analyzer testdata: int(x) of a uint32 or
// uint64 must not be compared or used as an index or slice bound.
package narrowing

type feature uint32

func compareU32(ind []uint32, dim int) bool {
	return int(ind[len(ind)-1]) >= dim // want `int\(ind\[len\(ind\) - 1\]\) of a uint32 in a comparison`
}

func compareU64(n uint64, have int) bool {
	return have < int(n) // want `int\(n\) of a uint64 in a comparison`
}

func compareNamed(f feature, dim int) bool {
	return (int(f)) == dim // want `int\(f\) of a uint32 in a comparison`
}

func index(rows []string, r uint32) string {
	return rows[int(r)] // want `int\(r\) of a uint32 as an index`
}

func slice(buf []byte, off, n uint64) []byte {
	return buf[int(off):int(off+n)] // want `int\(off\) of a uint64 as a slice bound` `int\(off \+ n\) of a uint64 as a slice bound`
}

// The fixed forms: compare in the unsigned type, convert once the
// bound holds.

func compareWide(ind []uint32, dim int) bool {
	return uint64(ind[len(ind)-1]) >= uint64(dim)
}

func boundThenConvert(rows []string, r uint32) string {
	if uint64(r) >= uint64(len(rows)) {
		return ""
	}
	return rows[r]
}

// Conversions outside a comparison or bound, of signed or narrower
// operands, and of constants are not this contract's business.

func assign(n uint64) int {
	return int(n)
}

func signed(x int32, dim int) bool {
	return int(x) < dim
}

func narrow(x uint16, dim int) bool {
	return int(x) < dim
}

const big uint32 = 7

func constant(dim int) bool {
	return int(big) < dim
}

func arithmetic(n uint32, dim int) bool {
	return int(n)+1 < dim
}

func allowed(n uint32, dim int) bool {
	//apsslint:allow narrowing n is a section count already bounded by the header size
	return int(n) < dim
}
