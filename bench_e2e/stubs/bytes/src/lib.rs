//! Empty: `kvstore` lists `bytes` in its manifest and imports nothing.
