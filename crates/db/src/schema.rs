//! Table schemas: named, typed columns and a primary key.

use crate::error::{DbError, DbResult};
use crate::row::Row;
use crate::value::{DataType, Value};

/// A single column definition.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Column {
    pub name: String,
    pub dtype: DataType,
    pub nullable: bool,
}

impl Column {
    /// A non-nullable column.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Column {
            name: name.into(),
            dtype,
            nullable: false,
        }
    }

    /// A nullable column.
    pub fn nullable(name: impl Into<String>, dtype: DataType) -> Self {
        Column {
            name: name.into(),
            dtype,
            nullable: true,
        }
    }
}

/// A table schema: ordered columns plus the indices of the primary-key
/// columns. Every table must declare a primary key; the engine stores rows
/// keyed by the encoded primary-key values.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Schema {
    columns: Vec<Column>,
    primary_key: Vec<usize>,
}

impl Schema {
    /// Creates a schema, resolving primary-key column names to indices.
    pub fn new(columns: Vec<Column>, primary_key: &[&str]) -> DbResult<Self> {
        let mut pk = Vec::with_capacity(primary_key.len());
        for name in primary_key {
            let idx = columns
                .iter()
                .position(|c| c.name == *name)
                .ok_or_else(|| DbError::NoSuchColumn {
                    table: "<schema>".into(),
                    column: (*name).to_string(),
                })?;
            pk.push(idx);
        }
        if pk.is_empty() {
            return Err(DbError::Invalid(
                "schema must declare at least one primary-key column".into(),
            ));
        }
        Ok(Schema {
            columns,
            primary_key: pk,
        })
    }

    /// Starts a fluent builder.
    pub fn builder() -> SchemaBuilder {
        SchemaBuilder::default()
    }

    /// The ordered column definitions.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Indices of the primary-key columns.
    pub fn primary_key(&self) -> &[usize] {
        &self.primary_key
    }

    /// Resolves a column name to its index.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Resolves a column of this schema's table `table`; an unknown one
    /// is [`DbError::NoSuchColumn`] naming that table.
    pub fn resolve(&self, table: &str, column: &str) -> DbResult<usize> {
        self.column_index(column)
            .ok_or_else(|| DbError::NoSuchColumn {
                table: table.to_string(),
                column: column.to_string(),
            })
    }

    /// Returns the column at `idx`.
    pub fn column(&self, idx: usize) -> Option<&Column> {
        self.columns.get(idx)
    }

    /// Column names in order.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }

    /// Validates a row against this schema for table `table`.
    pub fn validate_row(&self, table: &str, row: &Row) -> DbResult<()> {
        if row.len() != self.columns.len() {
            return Err(DbError::ArityMismatch {
                table: table.to_string(),
                expected: self.columns.len(),
                actual: row.len(),
            });
        }
        for (i, col) in self.columns.iter().enumerate() {
            let v = &row[i];
            if v.is_null() {
                if !col.nullable {
                    return Err(DbError::NullViolation {
                        table: table.to_string(),
                        column: col.name.clone(),
                    });
                }
                continue;
            }
            if !v.conforms_to(col.dtype) {
                return Err(DbError::TypeMismatch {
                    table: table.to_string(),
                    column: col.name.clone(),
                    expected: col.dtype,
                    actual: format!("{v:?}"),
                });
            }
        }
        // Primary-key columns must not be NULL even if declared nullable.
        for &pk in &self.primary_key {
            if row[pk].is_null() {
                return Err(DbError::NullViolation {
                    table: table.to_string(),
                    column: self.columns[pk].name.clone(),
                });
            }
        }
        Ok(())
    }

    /// Extracts the primary-key values of a row, in key-column order.
    pub fn key_of(&self, row: &Row) -> Vec<Value> {
        self.primary_key.iter().map(|&i| row[i].clone()).collect()
    }
}

/// Fluent builder for [`Schema`].
#[derive(Default)]
pub struct SchemaBuilder {
    columns: Vec<Column>,
    primary_key: Vec<String>,
}

impl SchemaBuilder {
    /// Adds a non-nullable column.
    pub fn column(mut self, name: impl Into<String>, dtype: DataType) -> Self {
        self.columns.push(Column::new(name, dtype));
        self
    }

    /// Adds a nullable column.
    pub fn nullable(mut self, name: impl Into<String>, dtype: DataType) -> Self {
        self.columns.push(Column::nullable(name, dtype));
        self
    }

    /// Declares the primary key (column names must already be added).
    pub fn primary_key(mut self, names: &[&str]) -> Self {
        self.primary_key = names.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Builds the schema.
    pub fn build(self) -> DbResult<Schema> {
        let pk: Vec<&str> = self.primary_key.iter().map(String::as_str).collect();
        Schema::new(self.columns, &pk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Row;

    fn users_schema() -> Schema {
        Schema::builder()
            .column("id", DataType::Int)
            .column("name", DataType::Text)
            .nullable("email", DataType::Text)
            .primary_key(&["id"])
            .build()
            .unwrap()
    }

    #[test]
    fn builder_resolves_primary_key() {
        let s = users_schema();
        assert_eq!(s.primary_key(), &[0]);
        assert_eq!(s.arity(), 3);
        assert_eq!(s.column_index("email"), Some(2));
        assert_eq!(s.column_index("missing"), None);
    }

    #[test]
    fn schema_requires_primary_key() {
        let err = Schema::builder()
            .column("a", DataType::Int)
            .build()
            .unwrap_err();
        assert!(matches!(err, DbError::Invalid(_)));
    }

    #[test]
    fn schema_rejects_unknown_pk_column() {
        let err = Schema::builder()
            .column("a", DataType::Int)
            .primary_key(&["b"])
            .build()
            .unwrap_err();
        assert!(matches!(err, DbError::NoSuchColumn { .. }));
    }

    #[test]
    fn validate_row_checks_arity_types_nulls() {
        let s = users_schema();
        let ok = Row::from(vec![Value::Int(1), Value::Text("a".into()), Value::Null]);
        assert!(s.validate_row("users", &ok).is_ok());

        let too_short = Row::from(vec![Value::Int(1)]);
        assert!(matches!(
            s.validate_row("users", &too_short),
            Err(DbError::ArityMismatch { .. })
        ));

        let bad_type = Row::from(vec![
            Value::Text("x".into()),
            Value::Text("a".into()),
            Value::Null,
        ]);
        assert!(matches!(
            s.validate_row("users", &bad_type),
            Err(DbError::TypeMismatch { .. })
        ));

        let null_name = Row::from(vec![Value::Int(1), Value::Null, Value::Null]);
        assert!(matches!(
            s.validate_row("users", &null_name),
            Err(DbError::NullViolation { .. })
        ));
    }

    #[test]
    fn validate_row_rejects_null_pk_even_when_nullable() {
        let s = Schema::builder()
            .nullable("id", DataType::Int)
            .column("v", DataType::Int)
            .primary_key(&["id"])
            .build()
            .unwrap();
        let row = Row::from(vec![Value::Null, Value::Int(1)]);
        assert!(matches!(
            s.validate_row("t", &row),
            Err(DbError::NullViolation { .. })
        ));
    }

    #[test]
    fn key_of_extracts_pk_values() {
        let s = Schema::builder()
            .column("a", DataType::Int)
            .column("b", DataType::Text)
            .column("c", DataType::Int)
            .primary_key(&["c", "a"])
            .build()
            .unwrap();
        let row = Row::from(vec![Value::Int(1), Value::Text("x".into()), Value::Int(9)]);
        assert_eq!(s.key_of(&row), vec![Value::Int(9), Value::Int(1)]);
    }
}
