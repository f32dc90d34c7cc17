package hw

import (
	"reflect"

	"knemesis/internal/cache"
)

// hasWayArrays reports whether c has made its way arrays, which it does on
// its first fill. package cache has no accessor for them (nothing outside
// the tests needs one), so the unexported field is read by reflection.
func hasWayArrays(c *cache.Cache) bool {
	return reflect.ValueOf(c).Elem().FieldByName("tags").Len() > 0
}
