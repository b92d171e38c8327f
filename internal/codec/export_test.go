package codec

// ValidType is Valid for a type known only at run time: the differential
// tests sweep RegisteredTypes with it.
var ValidType = validType
