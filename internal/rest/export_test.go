package rest

// SetReplyHeader adds a response header.
func (c *Ctx) SetReplyHeader(key, value string) {
	if c.ReplyHeaders == nil {
		c.ReplyHeaders = make(map[string]string, 4)
	}
	c.ReplyHeaders[key] = value
}
