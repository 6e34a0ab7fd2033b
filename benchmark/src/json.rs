//! A small JSON reader — objects, arrays, strings, numbers, `true`,
//! `false`, `null` — for the two documents the harness reads: the
//! server's `/metrics` export and `BENCHMARK.json`.

#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    /// Members in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    pub fn parse(text: &[u8]) -> Result<Value, String> {
        let mut parser = Parser { bytes: text, at: 0 };
        let value = parser.value()?;
        match parser.peek() {
            None => Ok(value),
            Some(_) => Err(format!("trailing bytes at {}", parser.at)),
        }
    }

    /// Member `key` of an object; `None` for other values or no such key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn members(&self) -> &[(String, Value)] {
        match self {
            Value::Object(members) => members,
            _ => &[],
        }
    }

    pub fn items(&self) -> &[Value] {
        match self {
            Value::Array(items) => items,
            _ => &[],
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn peek(&mut self) -> Option<u8> {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
        self.bytes.get(self.at).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", byte as char, self.at))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(format!("unexpected token at byte {}", self.at))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.at).copied() {
                None => return Err("unterminated string".into()),
                Some(b'"') => break,
                Some(b'\\') => {
                    // Neither document escapes anything but quotes and
                    // backslashes; keep the escaped byte as it is.
                    out.extend(self.bytes.get(self.at + 1));
                    self.at += 2;
                }
                Some(b) => {
                    out.push(b);
                    self.at += 1;
                }
            }
        }
        self.at += 1;
        String::from_utf8(out).map_err(|_| "string is not utf-8".into())
    }

    /// Comma-separated elements up to `close`, each read by `element`.
    fn sequence<T>(
        &mut self,
        close: u8,
        mut element: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.at += 1;
        let mut out = Vec::new();
        while self.peek() != Some(close) {
            if !out.is_empty() {
                self.expect(b',')?;
            }
            out.push(element(self)?);
        }
        self.at += 1;
        Ok(out)
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => Ok(Value::Object(self.sequence(b'}', |p| {
                let key = p.string()?;
                p.expect(b':')?;
                Ok((key, p.value()?))
            })?)),
            Some(b'[') => Ok(Value::Array(self.sequence(b']', Self::value)?)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(_) => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Value::Number)
                    .ok_or_else(|| format!("unexpected token at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn documents_parse_into_ordered_members() {
        let doc =
            Value::parse(br#" {"a": [1, -2.5e3, "x\"y"], "b": {"c": null, "d": true}, "e": {}} "#)
                .unwrap();
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["a", "b", "e"]);
        let a = doc.get("a").unwrap().items();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(-2500.0));
        assert_eq!(a[2].as_str(), Some("x\"y"));
        assert_eq!(doc.get("b").unwrap().get("c"), Some(&Value::Null));
        assert_eq!(doc.get("b").unwrap().get("d"), Some(&Value::Bool(true)));
        assert!(doc.get("e").unwrap().members().is_empty());
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn garbage_is_an_error() {
        for bad in ["", "{\"a\": }", "[1 2]", "{\"a\": 1} x", "nul", "\"open"] {
            assert!(Value::parse(bad.as_bytes()).is_err(), "{bad:?}");
        }
    }
}
